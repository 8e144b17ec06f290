package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"congestapsp/pkg/apsp"
)

// span is one traced interval. Spans of one workload operation share Op;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.t0)) }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartMS: t.since(start), EndMS: t.since(end)})
	return id
}

// end sets the end of span id (for a parent recorded before its children).
func (t *tracer) end(id int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[id-1].EndMS = t.since(at)
}

// addStages lays the pipeline's Stats.Stages out as consecutive children
// of the Run span that started at start.
func (t *tracer) addStages(parent, op int, start time.Time, stages []apsp.StageTiming) {
	if t == nil {
		return
	}
	at := t.since(start)
	for _, st := range stages {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: "core." + st.Name, StartMS: at, EndMS: at + st.WallMS})
		at += st.WallMS
	}
}

// selfMS returns each span name's total self time: its spans' durations
// minus the part of each interval covered by its children.
func (t *tracer) selfMS() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.EndMS - s.StartMS - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
	total, end := 0.0, s.StartMS
	for _, k := range kids {
		lo, hi := max(k.StartMS, end), min(k.EndMS, s.EndMS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// layerSelfMS folds per-span self times into layers (the name up to its
// first dot).
func layerSelfMS(self map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += v
	}
	return out
}

// write dumps the spans and self times as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfMS()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms"`
		Layers map[string]float64 `json:"layer_self_ms"`
	}{t.spans, self, layerSelfMS(self)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// engineCounter is the Options.OnRound hook: it counts simulated rounds,
// idle rounds and delivered messages.
type engineCounter struct {
	rounds, idle int
	delivered    int64
}

func (e *engineCounter) onRound(_, delivered int) {
	e.rounds++
	if delivered == 0 {
		e.idle++
	}
	e.delivered += int64(delivered)
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
