package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"congestapsp/pkg/apsp"
)

// hitsPerCycle is how many cached 4-pair reads follow each fresh read.
const hitsPerCycle = 20

type loadResponse struct {
	Graph string `json:"graph"`
	N     int    `json:"n"`
}

type queryResponse struct {
	Version uint64  `json:"version"`
	Cached  bool    `json:"cached"`
	Dist    []int64 `json:"dist"`
}

type updateResponse struct {
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
}

// serveClient is the closed-loop caller of serve-rw128: it owns the
// seeded write/read sequence and the oracle copy of the served graph.
type serveClient struct {
	b       *bench
	d       *daemon
	key     string
	seed    int64
	rng     *rand.Rand
	g       *apsp.Graph      // oracle copy at the last acknowledged version
	ends    [][2]int         // edge endpoints in Edges order; weight writes keep them
	ws      []int64          // g's edge weights in Edges order
	base    []int64          // the scenario's distances, row-major
	undo    *apsp.EdgeUpdate // the write that restores the weight the last write changed
	version uint64
	rows    map[int][]int64 // oracle rows at the current version
}

// cycleLog collects the latencies of a run of cycles and the writes sent.
type cycleLog struct {
	write, fresh, hit []float64
	ups               []apsp.EdgeUpdate
}

// serve runs serve-rw128 on scenario sc: set-up (spawn apspd, /readyz 200,
// load, first read) setupReps times, then closed-loop cycles of one
// single-edge write, one fresh read and hitsPerCycle cached reads against
// the last daemon. The workload seed drives the writes and reads. A traced
// run spends half its time untraced and half traced, each half from the
// start of the same sequence, then replays the untraced half's writes on an
// in-process Runner.
func (b *bench) serve(sc apsp.Scenario) error {
	b.rec.Scenario = sc.Name()
	g, err := sc.Build()
	if err != nil {
		return err
	}
	loadBody, err := json.Marshal(map[string]string{"scenario": sc.Name()})
	if err != nil {
		return err
	}
	c := &serveClient{b: b, seed: b.seed, rng: rand.New(rand.NewSource(b.seed)), g: g, ws: weights(g), base: floydWarshall(g)}
	g.Edges(func(u, v int, _ int64) { c.ends = append(c.ends, [2]int{u, v}) })
	defer func() {
		if c.d != nil {
			c.d.stop()
		}
	}()

	var setup []float64
	for i := 0; i < setupReps; i++ {
		if c.d != nil {
			c.d.stop()
			c.d = nil
		}
		op := b.tr.newOp()
		t0 := time.Now()
		d, err := startDaemon(b.apspd)
		if err != nil {
			return err
		}
		c.d = d
		if err := d.waitReady(); err != nil {
			return err
		}
		t1 := time.Now()
		var load loadResponse
		_, err = d.post("/v1/graphs", loadBody, &load)
		b.op(err)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if load.N != g.N() {
			return fmt.Errorf("load: daemon reports n = %d, want %d", load.N, g.N())
		}
		c.key = load.Graph
		t2 := time.Now()
		_, err = c.read()
		t3 := time.Now()
		b.op(err)
		if err != nil {
			return fmt.Errorf("first read: %w", err)
		}
		setup = append(setup, t3.Sub(t0).Seconds())
		if b.traced {
			root := b.tr.add("setup", 0, op, t0, t3)
			b.tr.add("serve.boot", root, op, t0, t1)
			b.tr.add("serve.load", root, op, t1, t2)
			b.tr.add("serve.first_read", root, op, t2, t3)
			b.sample("serve.boot_ms", ms(t1.Sub(t0)))
			b.sample("serve.load_ms", ms(t2.Sub(t1)))
			b.sample("serve.first_read_ms", ms(t3.Sub(t2)))
		}
	}
	b.put("setup_s", median(setup), len(setup))

	if !b.traced {
		var log cycleLog
		c.cycles(&log, time.Now().Add(b.seconds), false)
		solve := log.solveMS()
		b.put("solve_ms_p50", median(solve), len(solve))
		b.rec.OpMS = solve
		b.rec.Requests = log.summary()
		rss, err := peakRSSMB(c.d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		b.put("peak_rss_mb", rss, 1)
		return nil
	}

	half := b.seconds / 2
	m0, err := c.d.metrics()
	if err != nil {
		return err
	}
	var plain, traced cycleLog
	c.cycles(&plain, time.Now().Add(half), false)
	mA, err := c.d.metrics()
	if err != nil {
		return err
	}
	c.cycles(&traced, time.Now().Add(half), true)
	mB, err := c.d.metrics()
	if err != nil {
		return err
	}
	// Both halves start at the same point of the sequence; compare the
	// cycles both reached, so the overhead is over the same writes.
	k := min(len(plain.fresh), len(traced.fresh))
	b.putOverhead("solve_ms_p50", plain.solveMS()[:k], traced.solveMS()[:k])

	// Request latencies by kind, from the untraced half.
	b.rec.Requests = plain.summary()
	for _, k := range plain.kinds() {
		b.put("serve."+k.name+"_p50", median(k.ms), len(k.ms))
		b.put(fmt.Sprintf("serve.%s_p%d", k.name, k.high), percentile(k.ms, float64(k.high)), len(k.ms))
	}

	delta := func(series string) float64 { return mB[series] - m0[series] }
	hits, runs := delta("apspd_result_cache_hits_total"), delta("apspd_runs_total")
	writes := len(plain.ups) + len(traced.ups)
	reused, recomputed := delta("apspd_update_reused_total"), delta("apspd_update_recomputed_total")
	b.put("serve.cache_hit_ratio", ratio(hits, hits+runs), int(hits+runs))
	b.put("serve.runs", runs, int(runs))
	b.put("core.update_fallback_ratio", ratio(delta("apspd_update_fallbacks_total"), float64(writes)), writes)
	b.put("core.update_reuse_ratio", ratio(reused, reused+recomputed), writes)

	// Direct replay of the untraced half's writes; its update verdicts must
	// equal the daemon's counters over that half, and its re-run and apply
	// times are over the same writes as the half's request latencies.
	want := updateTotals{
		fellBack:   int(mA["apspd_update_fallbacks_total"] - m0["apspd_update_fallbacks_total"]),
		reused:     int(mA["apspd_update_reused_total"] - m0["apspd_update_reused_total"]),
		recomputed: int(mA["apspd_update_recomputed_total"] - m0["apspd_update_recomputed_total"]),
	}
	if err := b.directReplay(sc, plain.ups, want); err != nil {
		return err
	}
	b.put("serve.fresh_overhead_ms", median(plain.fresh)-median(b.samples["core.rerun_ms_p50"]), len(plain.fresh))
	b.put("serve.write_overhead_ms", median(plain.write)-median(b.samples["core.apply_updates_ms_p50"]), len(plain.write))
	return nil
}

// requestKind is the latency sample of one request kind and the high
// percentile reported for it.
type requestKind struct {
	name string
	ms   []float64
	high int
}

func (l *cycleLog) kinds() []requestKind {
	return []requestKind{
		{"read_hit_ms", l.hit, 99},
		{"read_fresh_ms", l.fresh, 90},
		{"write_ms", l.write, 90},
	}
}

// summary returns the request latency percentiles and sample counts by
// kind, for the run record.
func (l *cycleLog) summary() map[string]float64 {
	out := make(map[string]float64)
	for _, k := range l.kinds() {
		out[k.name+"_p50"] = median(k.ms)
		out[fmt.Sprintf("%s_p%d", k.name, k.high)] = percentile(k.ms, float64(k.high))
		out[k.name+"_samples"] = float64(len(k.ms))
	}
	return out
}

// solveMS is the per-cycle wait for a computed answer: the write's ack plus
// the fresh read that pays the daemon's re-run.
func (l *cycleLog) solveMS() []float64 {
	out := make([]float64, len(l.fresh))
	for i := range out {
		out[i] = l.write[i] + l.fresh[i]
	}
	return out
}

// cycles restarts the seeded sequence and runs cycles until deadline, and
// then until the weight the last write changed is restored. Every second
// write restores the weight the one before it changed, so each run of
// cycles starts from the served scenario and measures a prefix of the same
// sequence of writes and reads, however many cycles the host fits in.
func (c *serveClient) cycles(log *cycleLog, deadline time.Time, traced bool) {
	c.rng = rand.New(rand.NewSource(c.seed))
	for ok := true; time.Now().Before(deadline) || c.undo != nil && ok; {
		ok = c.cycle(log, traced)
	}
}

// cycle runs one write, the fresh read after it and hitsPerCycle repeat
// reads, which apspd must answer from its result cache. Failed requests
// count as failed operations and leave no latency sample. It reports
// whether the write succeeded.
func (c *serveClient) cycle(log *cycleLog, traced bool) bool {
	op := c.b.tr.newOp()
	up, t0, dw, err := c.write()
	c.b.op(err)
	if err != nil {
		return false
	}
	log.ups = append(log.ups, up)
	t1 := time.Now()
	q, err := c.read()
	c.b.op(err)
	if err != nil {
		return true
	}
	log.write = append(log.write, ms(dw))
	log.fresh = append(log.fresh, ms(q.dur))
	if traced {
		c.b.tr.add("serve.write", 0, op, t0, t0.Add(dw))
		c.b.tr.add("serve.read_fresh", 0, c.b.tr.newOp(), t1, t1.Add(q.dur))
	}
	for i := 0; i < hitsPerCycle; i++ {
		op := c.b.tr.newOp()
		t0 := time.Now()
		q, err := c.read()
		if err == nil && !q.cached {
			err = fmt.Errorf("repeat read at version %d answered uncached", c.version)
		}
		c.b.op(err)
		if err != nil {
			continue
		}
		log.hit = append(log.hit, ms(q.dur))
		if traced {
			c.b.tr.add("serve.read_hit", 0, op, t0, t0.Add(q.dur))
		}
	}
	return true
}

// write sends the next write of the sequence: the restoring write when one
// is due, else the next seeded change. It checks that the version rises by
// one, and returns the update, the send time and the latency.
func (c *serveClient) write() (apsp.EdgeUpdate, time.Time, time.Duration, error) {
	var up apsp.EdgeUpdate
	if c.undo != nil {
		up = *c.undo
	} else {
		var err error
		if up, err = c.change(); err != nil {
			return up, time.Time{}, 0, err
		}
	}
	body, err := json.Marshal(map[string]any{"updates": []map[string]any{{"op": "set", "u": up.U, "v": up.V, "w": up.W}}})
	if err != nil {
		return up, time.Time{}, 0, err
	}
	t0 := time.Now()
	var resp updateResponse
	dt, err := c.d.post("/v1/graphs/"+c.key+"/update", body, &resp)
	if err != nil {
		return up, t0, dt, err
	}
	c.version++
	undo, err := c.apply(up)
	if err != nil {
		return up, t0, dt, err
	}
	c.rows = nil
	if c.undo != nil {
		c.undo = nil
	} else {
		c.undo = undo
	}
	if resp.Version != c.version || resp.Applied != 1 {
		return up, t0, dt, fmt.Errorf("write: version %d applied %d, want version %d applied 1", resp.Version, resp.Applied, c.version)
	}
	return up, t0, dt, nil
}

// change draws the next seeded single-edge weight change that moves at
// least one distance, so the fresh read after it pays a re-run; draws that
// move none are skipped. The oracle copy is at the scenario when it is
// called, and is left there.
func (c *serveClient) change() (apsp.EdgeUpdate, error) {
	for tries := 0; tries < 1000; tries++ {
		i := c.rng.Intn(len(c.ends))
		w := int64(1 + c.rng.Intn(50))
		if w == c.ws[i] {
			w = w%50 + 1
		}
		up := apsp.EdgeUpdate{Op: apsp.SetWeight, U: c.ends[i][0], V: c.ends[i][1], W: w}
		undo, err := c.apply(up)
		if err != nil {
			return up, err
		}
		if undo == nil {
			continue
		}
		moved := !slices.Equal(floydWarshall(c.g), c.base)
		if _, err := c.apply(*undo); err != nil {
			return up, err
		}
		if moved {
			return up, nil
		}
	}
	return apsp.EdgeUpdate{}, errors.New("no seeded write among 1000 draws moves a distance")
}

// apply applies up to the oracle copy and returns the write that undoes
// it: the weight the addressed edge had before, or nil when no weight moved
// (the write hit a parallel edge of equal weight).
func (c *serveClient) apply(up apsp.EdgeUpdate) (*apsp.EdgeUpdate, error) {
	if err := c.g.ApplyUpdate(up); err != nil {
		return nil, err
	}
	before := c.ws
	c.ws = weights(c.g)
	for j := range before {
		if before[j] != c.ws[j] {
			return &apsp.EdgeUpdate{Op: apsp.SetWeight, U: up.U, V: up.V, W: before[j]}, nil
		}
	}
	return nil, nil
}

type readResult struct {
	dur    time.Duration
	cached bool
}

// read sends one 4-pair query and checks every distance against Dijkstra
// on the oracle copy at the version the response names.
func (c *serveClient) read() (readResult, error) {
	n := c.g.N()
	pairs := make([][2]int, 4)
	for i := range pairs {
		pairs[i] = [2]int{c.rng.Intn(n), c.rng.Intn(n)}
	}
	body, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		return readResult{}, err
	}
	var resp queryResponse
	dt, err := c.d.post("/v1/graphs/"+c.key+"/query", body, &resp)
	if err != nil {
		return readResult{}, err
	}
	if resp.Version != c.version {
		return readResult{}, fmt.Errorf("read: version %d, want %d", resp.Version, c.version)
	}
	if len(resp.Dist) != len(pairs) {
		return readResult{}, fmt.Errorf("read: %d answers for %d pairs", len(resp.Dist), len(pairs))
	}
	if c.rows == nil {
		c.rows = make(map[int][]int64)
	}
	for i, p := range pairs {
		row, ok := c.rows[p[0]]
		if !ok {
			row = dijkstra(c.g, p[0])
			c.rows[p[0]] = row
		}
		want := row[p[1]]
		if want >= apsp.Inf {
			want = -1
		}
		if resp.Dist[i] != want {
			return readResult{}, fmt.Errorf("read at version %d: dist(%d,%d) = %d, oracle %d", c.version, p[0], p[1], resp.Dist[i], want)
		}
	}
	return readResult{dur: dt, cached: resp.Cached}, nil
}

// updateTotals sums the update verdicts of a run of writes.
type updateTotals struct{ fellBack, reused, recomputed int }

// directReplay rebuilds the scenario on an in-process Runner, replays the
// protocols on it, and then applies each of ups followed by a traced Run,
// as the daemon did. The update verdicts over ups must equal want.
func (b *bench) directReplay(sc apsp.Scenario, ups []apsp.EdgeUpdate, want updateTotals) error {
	// The oracle's own copy of the graph: one pinned to a Runner must not
	// be mutated.
	og, err := sc.Build()
	if err != nil {
		return err
	}
	op := b.tr.newOp()
	t0 := time.Now()
	g, err := sc.Build()
	if err != nil {
		return err
	}
	t1 := time.Now()
	r, err := apsp.NewRunner(g)
	if err != nil {
		return err
	}
	t2 := time.Now()
	res, err := r.Run(apsp.Options{})
	t3 := time.Now()
	b.op(replayErr(res, err, og))
	if err != nil {
		return err
	}
	b.traceSetup(op, t0, t1, t2, t3, res.Stats.Stages)
	b.op(b.replay(g, res.Stats))

	var got updateTotals
	for _, up := range ups {
		op := b.tr.newOp()
		var eng engineCounter
		t0 := time.Now()
		us, err := r.ApplyUpdates([]apsp.EdgeUpdate{up})
		t1 := time.Now()
		b.op(err)
		if err != nil {
			continue
		}
		if err := og.ApplyUpdate(up); err != nil {
			return err
		}
		objs0, bytes0 := heapAllocs()
		t2 := time.Now()
		res, err := r.Run(apsp.Options{OnRound: eng.onRound})
		t3 := time.Now()
		objs1, bytes1 := heapAllocs()
		b.op(replayErr(res, err, og))
		if err != nil {
			continue
		}
		if us.FellBack {
			got.fellBack++
		}
		got.reused += us.Reused
		got.recomputed += us.Recomputed
		b.tr.add("core.apply_updates", 0, op, t0, t1)
		b.tr.addStages(b.tr.add("core.run", 0, op, t2, t3), op, t2, res.Stats.Stages)
		b.sample("core.apply_updates_ms_p50", ms(t1.Sub(t0)))
		b.sample("core.rerun_ms_p50", ms(t3.Sub(t2)))
		b.runSamples(res.Stats, t3.Sub(t2), &eng, objs1-objs0, bytes1-bytes0)
	}
	if got != want {
		b.op(fmt.Errorf("direct replay verdicts %+v, daemon /metrics deltas %+v", got, want))
	} else {
		b.op(nil)
	}
	return nil
}

// replayErr checks a replay run's distances against Floyd–Warshall on g.
func replayErr(res *apsp.Result, err error, g *apsp.Graph) error {
	if err != nil {
		return err
	}
	return distErr(res, floydWarshall(g), g.N())
}
