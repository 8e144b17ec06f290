package main

import (
	"fmt"
	"runtime"
	"time"

	"congestapsp/pkg/apsp"
)

// counters are the simulated quantities every solve of one scenario must
// reproduce exactly.
type counters struct {
	Rounds            int   `json:"rounds"`
	Messages          int64 `json:"messages"`
	Words             int64 `json:"words"`
	MaxNodeCongestion int64 `json:"max_node_congestion"`
	Q                 int   `json:"q"`
	H                 int   `json:"h"`
}

func countersOf(st apsp.Stats) counters {
	return counters{st.Rounds, st.Messages, st.Words, st.MaxNodeCongestion, st.BlockerSetSize, st.H}
}

// solveCheck verifies solves of one scenario: Dist against the Floyd–
// Warshall oracle, and the counters against the recorded values for the
// scenario, or, for a seed without recorded values, against the first solve.
type solveCheck struct {
	n      int
	oracle []int64
	want   counters
	have   bool
}

func (c *solveCheck) check(res *apsp.Result) error {
	got := countersOf(res.Stats)
	if !c.have {
		c.want, c.have = got, true
	}
	if got != c.want {
		return fmt.Errorf("counters %+v, want %+v", got, c.want)
	}
	return distErr(res, c.oracle, c.n)
}

// distErr compares res.Dist with the n x n oracle matrix.
func distErr(res *apsp.Result, oracle []int64, n int) error {
	for x := 0; x < n; x++ {
		for t, d := range res.Dist[x] {
			if d != oracle[x*n+t] {
				return fmt.Errorf("dist(%d,%d) = %d, oracle %d", x, t, d, oracle[x*n+t])
			}
		}
	}
	return nil
}

// solve runs a solve workload: set-up (scenario build, NewRunner, one cold
// Run) setupReps times, then back-to-back warm Runs of the last Runner for
// the measured seconds. A traced run spends the first half untraced, the
// second half traced, and then replays the pipeline's protocols.
func (b *bench) solve(sc apsp.Scenario) error {
	b.rec.Scenario = sc.Name()
	g, err := sc.Build()
	if err != nil {
		return err
	}
	chk := &solveCheck{n: g.N(), oracle: floydWarshall(g)}
	chk.want, chk.have = expectedCounters[sc.Name()]

	var r *apsp.Runner
	var setup []float64
	for i := 0; i < setupReps; i++ {
		// Every set-up starts from a heap without the previous Runner, as
		// in a fresh process, so neither its time nor the peak RSS carries
		// the last one's garbage.
		r = nil
		runtime.GC()
		op := b.tr.newOp()
		t0 := time.Now()
		g, err := sc.Build()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if r, err = apsp.NewRunner(g); err != nil {
			return err
		}
		t2 := time.Now()
		res, err := r.Run(apsp.Options{})
		t3 := time.Now()
		setup = append(setup, t3.Sub(t0).Seconds())
		b.op(solveErr(res, err, chk))
		if err != nil {
			return fmt.Errorf("cold run: %w", err)
		}
		if b.traced {
			b.traceSetup(op, t0, t1, t2, t3, res.Stats.Stages)
		}
	}
	b.put("setup_s", median(setup), len(setup))
	b.rec.Counters = chk.want

	if !b.traced {
		solveMS := b.warmRuns(r, chk, time.Now().Add(b.seconds), false)
		b.put("solve_ms_p50", median(solveMS), len(solveMS))
		b.rec.OpMS = solveMS
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		b.put("peak_rss_mb", rss, 1)
		return nil
	}

	half := b.seconds / 2
	plain := b.warmRuns(r, chk, time.Now().Add(half), false)
	traced := b.warmRuns(r, chk, time.Now().Add(half), true)
	b.putOverhead("solve_ms_p50", plain, traced)

	// Protocol replay, reconciled against the stages of one more warm Run.
	res, err := r.Run(apsp.Options{})
	b.op(solveErr(res, err, chk))
	if err != nil {
		return err
	}
	b.op(b.replay(g, res.Stats))
	return nil
}

// traceSetup records the spans and samples of one library set-up: the
// scenario build [t0,t1], NewRunner [t1,t2] and the first cold Run [t2,t3].
func (b *bench) traceSetup(op int, t0, t1, t2, t3 time.Time, stages []apsp.StageTiming) {
	root := b.tr.add("setup", 0, op, t0, t3)
	b.tr.add("graph.build", root, op, t0, t1)
	b.tr.add("core.new_runner", root, op, t1, t2)
	b.tr.addStages(b.tr.add("core.run", root, op, t2, t3), op, t2, stages)
	b.sample("graph.build_ms", ms(t1.Sub(t0)))
	b.sample("core.new_runner_ms", ms(t2.Sub(t1)))
	b.sample("core.first_run_ms", ms(t3.Sub(t2)))
}

// putOverhead reports the traced-minus-untraced median of one operation.
func (b *bench) putOverhead(name string, plain, traced []float64) {
	d := median(traced) - median(plain)
	b.put("trace.overhead_ms", d, len(plain)+len(traced))
	b.rec.Overhead = map[string]float64{name: d}
}

func solveErr(res *apsp.Result, err error, chk *solveCheck) error {
	if err != nil {
		return err
	}
	return chk.check(res)
}

// warmRuns calls r.Run back to back until deadline and returns the wall time
// of each successful call. Answers are checked outside the timed region.
// Traced calls also record spans, the engine's rounds and the heap
// allocations of each Run.
func (b *bench) warmRuns(r *apsp.Runner, chk *solveCheck, deadline time.Time, traced bool) []float64 {
	var out []float64
	for time.Now().Before(deadline) {
		var eng engineCounter
		opt := apsp.Options{}
		if traced {
			opt.OnRound = eng.onRound
		}
		objs0, bytes0 := heapAllocs()
		t0 := time.Now()
		res, err := r.Run(opt)
		t1 := time.Now()
		objs1, bytes1 := heapAllocs()
		b.op(solveErr(res, err, chk))
		if err != nil {
			continue
		}
		out = append(out, ms(t1.Sub(t0)))
		if traced {
			op := b.tr.newOp()
			b.tr.addStages(b.tr.add("core.run", 0, op, t0, t1), op, t0, res.Stats.Stages)
			b.runSamples(res.Stats, t1.Sub(t0), &eng, objs1-objs0, bytes1-bytes0)
		}
	}
	return out
}

// runSamples records the per-layer observations of one traced Run: stage
// walls, the remainder no stage accounts for, charged work, allocations and
// the engine's counters.
func (b *bench) runSamples(st apsp.Stats, wall time.Duration, eng *engineCounter, objs, bytes uint64) {
	staged := 0.0
	for _, s := range st.Stages {
		b.sample("core."+s.Name+".wall_ms", s.WallMS)
		staged += s.WallMS
	}
	b.sample("core.unattributed_ms", ms(wall)-staged)
	b.sample("core.rounds", float64(st.Rounds))
	b.sample("core.messages", float64(st.Messages))
	b.sample("core.words", float64(st.Words))
	b.sample("core.allocs", float64(objs))
	b.sample("core.alloc_mb", float64(bytes)/(1<<20))
	b.sample("congest.simulated_rounds", float64(eng.rounds))
	b.sample("congest.idle_round_ratio", ratio(float64(eng.idle), float64(eng.rounds)))
	b.sample("congest.delivered_per_charged_msg", ratio(float64(eng.delivered), float64(st.Messages)))
}
