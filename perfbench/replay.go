package main

import (
	"fmt"
	"time"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
	"congestapsp/pkg/apsp"
)

// replay runs the paper's protocols one by one on a fresh network over a
// copy of pg, as the pipeline's steps 1, 2, 3 and 6 call them, records wall
// time and messages per protocol, and reconciles each protocol's rounds
// with the matching stage of st, a pipeline run on the same graph.
func (b *bench) replay(pg *apsp.Graph, st apsp.Stats) error {
	g := graph.New(pg.N(), pg.Directed())
	var addErr error
	pg.Edges(func(u, v int, w int64) {
		if err := g.AddEdge(u, v, w); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return addErr
	}
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		return err
	}
	op := b.tr.newOp()
	start := time.Now()
	root := b.tr.add("replay", 0, op, start, start)
	var rounds [4]int
	// step times fn on nw and records its span, wall time, messages and
	// ns per message under prefix; it returns the rounds fn charged.
	step := func(prefix string, fn func() error) (int, error) {
		r0, m0 := nw.Stats.Rounds, nw.Stats.Messages
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", prefix, err)
		}
		msgs := nw.Stats.Messages - m0
		b.tr.add(prefix, root, op, t0, t1)
		b.put(prefix+".wall_ms", ms(t1.Sub(t0)), 1)
		b.put(prefix+".messages", float64(msgs), 1)
		b.put(prefix+".ns_per_msg", ratio(float64(t1.Sub(t0).Nanoseconds()), float64(msgs)), 1)
		return nw.Stats.Rounds - r0, nil
	}

	sources := make([]int, g.N)
	for i := range sources {
		sources[i] = i
	}
	var coll *csssp.Collection
	if rounds[0], err = step("csssp", func() (err error) {
		coll, err = csssp.Build(nw, g, sources, st.H, bford.Out)
		return err
	}); err != nil {
		return err
	}
	var bres *blocker.Result
	if rounds[1], err = step("blocker", func() (err error) {
		bres, err = blocker.Compute(nw, coll, blocker.Params{Mode: blocker.Deterministic})
		return err
	}); err != nil {
		return err
	}
	if rounds[2], err = step("bford", func() error {
		for _, c := range bres.Q {
			if _, err := bford.RunLabels(nw, g, c, st.H, bford.In); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var qres *qsink.Result
	if rounds[3], err = step("qsink", func() (err error) {
		delta := graph.BlockerDelta(g, bres.Q)
		qres, err = qsink.Run(nw, g, bres.Q, delta, qsink.Params{
			Scheduler: qsink.RoundRobin,
			Blocker:   blocker.Params{Mode: blocker.Deterministic},
		})
		return err
	}); err != nil {
		return err
	}
	b.tr.end(root, time.Now())

	bs := bres.Stats
	b.put("blocker.selection_steps", float64(bs.SelectionSteps), 1)
	b.put("blocker.good_point_ratio", ratio(float64(bs.GoodPoints), float64(bs.PointsScanned)), 1)
	b.put("qsink.pipeline_rounds", float64(qres.Stats.PipelineRounds), 1)

	if len(bres.Q) != st.BlockerSetSize {
		return fmt.Errorf("replay: |Q| = %d, pipeline %d", len(bres.Q), st.BlockerSetSize)
	}
	stageRounds := make(map[string]int)
	for _, s := range st.Stages {
		stageRounds[s.Name] = s.Rounds
	}
	for i, name := range []string{"step1-csssp", "step2-blocker", "step3-insssp", "step6-qsink"} {
		if rounds[i] != stageRounds[name] {
			return fmt.Errorf("replay: %d rounds for %s, pipeline stage charged %d", rounds[i], name, stageRounds[name])
		}
	}
	return nil
}
