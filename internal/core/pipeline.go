package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
	"congestapsp/internal/qsink"
)

// This file is the staged pipeline executor: Algorithm 1 expressed as a
// declarative list of named stages instead of one monolithic Run body.
// Each stage is a method on *pipeline (the state threaded between steps);
// the executor wraps every stage uniformly with wall-clock, simulated-round
// and heap-allocation instrumentation, so the ad-hoc mark() timing code of
// the old monolith is gone and per-stage cost lands in Result.Stages (and
// from there in apsp.Stats and EXPERIMENTS.json).

// StageTiming is the host-and-model cost record of one executed pipeline
// stage. Rounds is deterministic (it follows the paper's charged
// schedules); WallMS and Allocs are host-side observations.
//
// Allocs is the change in runtime/metrics' /gc/heap/allocs:objects across
// the stage, not an exact count: the metric leaves out tiny objects
// (pointer-free, under 16 bytes) and counts a small object only when its
// span cache hands the span back (go1.24 mcache.refill), so one stage can
// be charged for another's allocations. testing.AllocsPerRun gives exact
// counts.
type StageTiming struct {
	Name   string  // stage name as it appears in EXPERIMENTS.json rows
	Rounds int     // CONGEST rounds charged by the stage
	WallMS float64 // host wall-clock spent in the stage
	Allocs uint64  // heap objects the runtime metric counted during the stage
}

// stage is one declarative entry of the executor: a named unit of
// Algorithm 1 with an optional skip predicate. Stages run in order; the
// executor owns all instrumentation and error wrapping.
type stage struct {
	name string
	skip func(*pipeline) bool
	run  func(*pipeline) error
}

// pipelineStages is Algorithm 1 as data: Steps 1-7 of the paper plus the
// implementation's last-edge resolution pass. Step 5 is purely local
// computation — it charges no rounds, but as a stage it is timed like
// everything else.
var pipelineStages = []stage{
	{name: "step1-csssp", run: (*pipeline).stageCSSSP},
	{name: "step2-blocker", run: (*pipeline).stageBlocker},
	{name: "step3-insssp", run: (*pipeline).stageInSSSP},
	{name: "step4-bcast", run: (*pipeline).stageBroadcast},
	{name: "step5-closure", run: (*pipeline).stageClosure},
	{name: "step6-qsink", run: (*pipeline).stageQSink},
	{name: "step7-extend", run: (*pipeline).stageExtend},
	{
		name: "step8-lastedge",
		skip: func(p *pipeline) bool { return p.opt.SkipLastEdges },
		run:  (*pipeline).stageLastEdges,
	},
}

// pipeline is the state threaded through the staged executor: the inputs
// (graph, network, resolved options) and every intermediate artifact a
// later stage reads.
type pipeline struct {
	g   *graph.Graph
	nw  *congest.Network
	opt Options
	n   int
	h   int
	bp  blocker.Params // Step 2's construction, resolved by the caller

	sources   []int             // 0..n-1 (Step 1 builds one tree per node)
	coll      *csssp.Collection // Step 1: h-hop CSSSP collection
	Q         []int             // Step 2: blocker set
	deltaH    *mat.Matrix       // Step 3: |Q| x n, deltaH.At(ci, x) = delta_h(x, Q[ci])
	deltaHops [][]int           // Step 3: hop counts realizing deltaH rows (convergence levels; damage-test metadata, no protocol input)
	allPairsQ []broadcast.Item  // Step 4: gathered (ci, cj, delta_h(cj, ci)) triples
	delta     *mat.Matrix       // Step 5: n x |Q|, the exact delta(x, c) known at x
	qres      *qsink.Result     // Step 6: q-sink delivery output
	distM     *mat.Matrix       // Step 7: n x n, row x = delta(x, .)

	// inc, when non-nil, is the damage-scoped plan of an incremental run
	// (the first Run after Session.ApplyUpdates with a valid snapshot):
	// stage bodies re-execute only the label systems the plan marks dirty,
	// restore the rest from the snapshot, and charge the recorded rounds
	// for skipped work so the round accounting matches a cold run exactly.
	// qcap, when non-nil, is the session's q-sink capture target.
	// recycle, when non-nil, is a collection no one reads any more (the
	// invalidated snapshot's) that a cold Step 1 rebuilds in place.
	inc     *incPlan
	qcap    *qsink.Snapshot
	recycle *csssp.Collection

	st     Stats
	stages []StageTiming
	out    *Result
}

// execute runs every non-skipped stage of stages in order, recording
// per-stage wall clock, charged rounds and heap allocations. Allocation
// counts come from runtime/metrics (approximate, see StageTiming; no
// stop-the-world, unlike runtime.ReadMemStats — a warm session serves
// repeated runs, so the executor must not pause the world 16 times per
// call for a bookkeeping column).
func (p *pipeline) execute(stages []stage) error {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	allocs := func() uint64 {
		metrics.Read(sample[:])
		return sample[0].Value.Uint64()
	}
	for _, st := range stages {
		if st.skip != nil && st.skip(p) {
			continue
		}
		// Stage boundary: the second cancellation observation point (the
		// first is the engine's round loop). Both are one nil-check when no
		// cancelable context is armed.
		p.nw.NotifyStage(st.name)
		if err := p.nw.CtxErr(); err != nil {
			return p.interrupted(st.name, err)
		}
		allocs0 := allocs()
		rounds0 := p.nw.Stats.Rounds
		start := time.Now()
		err := runStage(st, p)
		wall := time.Since(start)
		rounds := p.nw.Stats.Rounds - rounds0
		if err != nil {
			// Record the interrupted stage's partial cost before bailing, so
			// InterruptError (and any caller inspecting p.stages) sees the
			// work actually performed.
			p.stages = append(p.stages, StageTiming{
				Name:   st.name,
				Rounds: rounds,
				WallMS: float64(wall.Microseconds()) / 1000,
				Allocs: allocs() - allocs0,
			})
			if isContextErr(err) {
				return p.interrupted(st.name, err)
			}
			var pe *congest.PanicError
			if errors.As(err, &pe) && pe.Stage == "" {
				pe.Stage = st.name
			}
			return fmt.Errorf("core: %s: %w", st.name, err)
		}
		p.stages = append(p.stages, StageTiming{
			Name:   st.name,
			Rounds: rounds,
			WallMS: float64(wall.Microseconds()) / 1000,
			Allocs: allocs() - allocs0,
		})
	}
	return nil
}

// interrupted wraps a context error in an InterruptError carrying the
// progress made so far.
func (p *pipeline) interrupted(stage string, cause error) error {
	return &InterruptError{
		Stage:           stage,
		CompletedRounds: p.nw.Stats.Rounds,
		Stages:          p.stages,
		Cause:           cause,
	}
}

// runStage executes one stage body under panic isolation: a panic escaping
// the stage outside any ShardRuns dispatch (which recovers its own
// sub-runs) becomes a *congest.PanicError instead of killing the process.
// The single deferred recover over a named return is open-coded by the
// compiler, so the happy path allocates nothing.
func runStage(st stage, p *pipeline) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &congest.PanicError{SubRun: -1, Source: -1, Value: v, Stack: debug.Stack()}
		}
	}()
	return st.run(p)
}

// run executes the stages and assembles the Result.
func (p *pipeline) run() (*Result, error) {
	p.out = &Result{}
	if err := p.execute(pipelineStages); err != nil {
		return nil, err
	}
	p.st.Rounds = p.nw.Stats.Rounds
	p.st.Messages = p.nw.Stats.Messages
	p.st.Words = p.nw.Stats.Words
	p.st.MaxNodeCongestion = p.nw.Stats.MaxNodeCongestion()
	p.out.Stats = p.st
	p.out.Stages = p.stages
	return p.out, nil
}

// stageCSSSP is Step 1: the h-hop CSSSP collection for V (out-trees). On
// an incremental run it refreshes only the trees whose 2h-hop label system
// a graph update could have tightened (the damage test of update.go),
// keeps the rest of the snapshot collection, and charges the recorded
// rounds for the reused trees — each tree costs exactly 4h+3 rounds, so
// the total matches a cold run. A refreshed tree that actually changed
// flips the cascade flag: every later stage then runs its cold body on the
// (partially reused) fresh inputs. A cold run builds into p.recycle when
// the session hands it one.
func (p *pipeline) stageCSSSP() error {
	p.sources = make([]int, p.n)
	for i := range p.sources {
		p.sources[i] = i
	}
	if ip := p.inc; ip != nil {
		p.coll = ip.snap.coll
		k := len(ip.dirty1)
		if k > 0 {
			changed, err := p.coll.Refresh(p.nw, ip.dirty1)
			if err != nil {
				return err
			}
			if changed {
				ip.cascade = true
			}
		}
		p.nw.ChargeRounds(ip.snap.rounds("step1-csssp") - k*(4*p.h+3))
		return nil
	}
	coll := p.recycle
	if coll == nil {
		coll = new(csssp.Collection)
	}
	if err := csssp.BuildInto(coll, p.nw, p.g, p.sources, p.h, bford.Out); err != nil {
		return err
	}
	p.coll = coll
	return nil
}

// stageBlocker is Step 2: the blocker set Q for the collection, built by
// the construction the caller resolved into p.bp.
func (p *pipeline) stageBlocker() error {
	if ip := p.inc; ip != nil && !ip.cascade {
		// The collection is bit-identical to the snapshot run's, so the
		// blocker construction would reproduce Q, its stats, and its round
		// schedule exactly; restore all three and charge the rounds.
		p.Q = ip.snap.Q
		p.st.QSize = ip.snap.stats.QSize
		p.st.Blocker = ip.snap.stats.Blocker
		p.nw.ChargeRounds(ip.snap.rounds("step2-blocker"))
		return nil
	}
	bres, err := blocker.Compute(p.nw, p.coll, p.bp)
	if err != nil {
		return err
	}
	p.coll.ResetRemovals() // the blocker construction pruned the trees
	p.Q = bres.Q
	p.st.QSize = len(p.Q)
	p.st.Blocker = bres.Stats
	return nil
}

// stageInSSSP is Step 3: one h-hop in-SSSP per blocker node, so node x
// learns deltaH row ci at column x = delta_h(x, Q[ci]). (Label distances:
// min weight over <= h hops.) The |Q| runs are independent, so they
// dispatch across the worker-clone fleet; each run owns one matrix row.
func (p *pipeline) stageInSSSP() error {
	if ip := p.inc; ip != nil && !ip.cascade {
		// Re-run only the damaged in-systems, in place over the snapshot
		// matrix; each costs exactly h+1 rounds, reused rows charge the
		// recorded rest. A row that actually moved cascades stages 4-8.
		p.deltaH = ip.snap.deltaH
		p.deltaHops = ip.snap.deltaHops
		k := len(ip.dirty3)
		if k > 0 {
			changed := make([]bool, k)
			err := p.nw.ShardRuns(k, func(w *congest.Network, j int) error {
				ci := ip.dirty3[j]
				res, err := bford.RunLabels(w, p.g, p.Q[ci], p.h, bford.In)
				if err != nil {
					return err
				}
				// Convergence levels refresh unconditionally (damage metadata
				// only): hops that moved under identical distances change
				// nothing any later stage reads, so they don't cascade.
				copy(p.deltaHops[ci], res.Hops)
				row := p.deltaH.Row(ci)
				for v := range row {
					if row[v] != res.Dist[v] {
						row[v] = res.Dist[v]
						changed[j] = true
					}
				}
				return nil
			})
			if err != nil {
				return p.tagSource(err, func(i int) int { return p.Q[ip.dirty3[i]] })
			}
			for _, chg := range changed {
				if chg {
					ip.cascade = true
					break
				}
			}
		}
		p.nw.ChargeRounds(ip.snap.rounds("step3-insssp") - k*(p.h+1))
		return nil
	}
	q := len(p.Q)
	p.deltaH = mat.New(q, p.n)
	p.deltaHops = mat.NewInt(q, p.n).RowViews()
	err := p.nw.ShardRuns(q, func(w *congest.Network, ci int) error {
		res, err := bford.RunLabels(w, p.g, p.Q[ci], p.h, bford.In)
		if err != nil {
			return err
		}
		copy(p.deltaH.Row(ci), res.Dist)
		copy(p.deltaHops[ci], res.Hops)
		return nil
	})
	return p.tagSource(err, func(i int) int { return p.Q[i] })
}

// tagSource annotates a recovered sub-run panic with the source vertex its
// sub-run index maps to (sub-run i of Step 3 serves blocker Q[i]; of Step 7,
// the i-th extended source), completing the PanicError's (sub-run, source,
// stage) tag.
func (p *pipeline) tagSource(err error, src func(i int) int) error {
	if err == nil {
		return nil
	}
	var pe *congest.PanicError
	if errors.As(err, &pe) && pe.Source < 0 && pe.SubRun >= 0 {
		pe.Source = src(pe.SubRun)
	}
	return err
}

// stageBroadcast is Step 4: every blocker c broadcasts delta_h(c, c') for
// all c' in Q (|Q|^2 values; O(n + |Q|^2) rounds, Lemma A.2/A.1).
func (p *pipeline) stageBroadcast() error {
	if ip := p.inc; ip != nil && !ip.cascade {
		// deltaH is unchanged, so the item counts — and with them the
		// broadcast schedule — are what the snapshot run recorded. Stage 5
		// reuses the snapshot delta matrix, so the gathered items are not
		// needed at all.
		p.nw.ChargeRounds(ip.snap.rounds("step4-bcast"))
		return nil
	}
	tree, err := broadcast.BuildBFS(p.nw, 0)
	if err != nil {
		return err
	}
	itemCnt := make([]int32, p.n)
	for _, c := range p.Q {
		for cj := range p.Q {
			if p.deltaH.At(cj, c) < graph.Inf {
				itemCnt[c]++
			}
		}
	}
	items := broadcast.CarveItems(itemCnt)
	for ci, c := range p.Q {
		for cj := range p.Q {
			if d := p.deltaH.At(cj, c); d < graph.Inf {
				items[c] = append(items[c], broadcast.Item{A: int64(ci), B: int64(cj), C: d})
			}
		}
	}
	all, err := broadcast.AllToAll(p.nw, tree, items)
	if err != nil {
		return err
	}
	p.allPairsQ = all
	return nil
}

// stageClosure is Step 5 (local): min-plus closure over the Q x Q matrix,
// then delta(x, c) = min(delta_h(x, c), min_c1 delta_h(x, c1) + dQ(c1, c)).
func (p *pipeline) stageClosure() error {
	if ip := p.inc; ip != nil && !ip.cascade {
		// Local stage, pure function of deltaH (unchanged): reuse the
		// snapshot's delta matrix wholesale.
		p.delta = ip.snap.delta
		return nil
	}
	q := len(p.Q)
	dQ := mat.NewFilled(q, q, graph.Inf)
	for i := 0; i < q; i++ {
		dQ.Set(i, i, 0)
	}
	for _, it := range p.allPairsQ {
		ci, cj, d := int(it.A), int(it.B), it.C
		if d < dQ.At(ci, cj) {
			dQ.Set(ci, cj, d)
		}
	}
	for k := 0; k < q; k++ {
		rowK := dQ.Row(k)
		for i := 0; i < q; i++ {
			dik := dQ.At(i, k)
			if dik >= graph.Inf {
				continue
			}
			rowI := dQ.Row(i)
			for j := 0; j < q; j++ {
				if nd := dik + rowK[j]; nd < rowI[j] {
					rowI[j] = nd
				}
			}
		}
	}
	// delta row x at column ci: the Step-5 value known at x.
	p.delta = mat.New(p.n, q)
	for x := 0; x < p.n; x++ {
		row := p.delta.Row(x)
		for ci := 0; ci < q; ci++ {
			best := p.deltaH.At(ci, x)
			for c1 := 0; c1 < q; c1++ {
				if dH := p.deltaH.At(c1, x); dH < graph.Inf {
					if dq := dQ.At(c1, ci); dq < graph.Inf {
						if nd := dH + dq; nd < best {
							best = nd
						}
					}
				}
			}
			row[ci] = best
		}
	}
	p.allPairsQ = nil // consumed; the items alias broadcast pooled storage
	return nil
}

// stageQSink is Step 6: reversed q-sink delivery. On an incremental run
// the stage is skipped outright when no q-sink-internal label system was
// damaged (its inputs — delta, Q, topology — are unchanged, so the whole
// delivery would replay identically); otherwise it re-runs cold, and any
// blocker value that actually moved marks the affected sources for Step-7
// re-extension.
func (p *pipeline) stageQSink() error {
	ip := p.inc
	if ip != nil && !ip.cascade && !ip.qsinkDirty {
		p.qres = ip.snap.qres
		p.st.QSink = ip.snap.stats.QSink
		p.nw.ChargeRounds(ip.snap.rounds("step6-qsink"))
		return nil
	}
	qp := qsink.Params{Scheduler: qsink.RoundRobin, Blocker: blocker.Params{Mode: blocker.Deterministic}}
	switch p.opt.Variant {
	case Det32, BroadcastStep6:
		qp.Scheduler = qsink.BroadcastAll
	case Rand43:
		qp.Blocker = blocker.Params{Mode: blocker.RandomSample, Seed: p.opt.Seed + 1}
	}
	qp.Capture = p.qcap
	qres, err := qsink.Run(p.nw, p.g, p.Q, p.delta, qp)
	if err != nil {
		return err
	}
	if ip != nil && !ip.cascade {
		// Compare against the snapshot delivery: a source whose blocker
		// values moved needs its Step-7 extension re-run even if its own
		// h-hop labels were never damaged.
		old := ip.snap.qres.AtBlocker
		for ci := range qres.AtBlocker {
			newRow, oldRow := qres.AtBlocker[ci], old[ci]
			for x := range newRow {
				if !ip.dirty7[x] && newRow[x] != oldRow[x] {
					ip.dirty7[x] = true
				}
			}
		}
	}
	p.qres = qres
	p.st.QSink = qres.Stats
	return nil
}

// stageExtend is Step 7: per source x, an extended h-hop Bellman-Ford
// seeded with the Step-1 labels everywhere and the exact delta(x, c) at
// blockers. The per-source extensions are independent, so they dispatch
// across the worker-clone fleet like Step 3; each source owns one row of
// the flat n x n distance matrix. On an incremental run only the sources
// the plan marks dirty re-extend; clean rows are copied out of the
// snapshot (Result matrices stay caller-owned, so the snapshot arrays are
// never handed out directly). Each re-run costs exactly h+1 rounds; the
// reused rows charge the recorded remainder.
func (p *pipeline) stageExtend() error {
	n := p.n
	xs := p.sources
	p.distM = mat.New(n, n)
	ip := p.inc
	reuse := ip != nil && !ip.cascade
	if reuse {
		xs = nil
		for x := 0; x < n; x++ {
			if ip.dirty7[x] {
				xs = append(xs, x)
			} else {
				copy(p.distM.Row(x), ip.snap.distFlat[x*n:(x+1)*n])
			}
		}
	}
	err := p.nw.ShardRuns(len(xs), func(w *congest.Network, k int) error {
		x := xs[k] // Step 1 built one tree per node, indexed by id
		// The seed vector comes from the worker's scratch arena (reset per
		// sub-run by ShardRuns); RunLabelsWithInit is the non-resetting
		// bford entry point, so the checkout stays live through the run.
		init := w.Scratch().Int64s(n)
		copy(init, p.coll.Label[x])
		for ci := range p.Q {
			if v := p.qres.AtBlocker[ci][x]; v < init[p.Q[ci]] {
				init[p.Q[ci]] = v
			}
		}
		res, err := bford.RunLabelsWithInit(w, p.g, init, p.h, bford.Out)
		if err != nil {
			return err
		}
		copy(p.distM.Row(x), res.Dist)
		return nil
	})
	if err != nil {
		return p.tagSource(err, func(i int) int { return xs[i] })
	}
	if reuse {
		p.nw.ChargeRounds(ip.snap.rounds("step7-extend") - len(xs)*(p.h+1))
	}
	p.out.Dist = p.distM.RowViews()
	return nil
}

// stageLastEdges is the final neighbor exchange (an implementation
// addition; see the package comment): every node already knows its column
// of the distance matrix, and one pipelined exchange of that column with
// each neighbor lets each t pick, per source x, the smallest-id
// in-neighbor u with delta(x, u) + w(u, t) = delta(x, t).
// On an incremental run with every distance row proven unchanged (no source
// re-extended — required even when re-runs come back equal, because stage 8
// reads the matrix wholesale) the exchange would replay identically; the
// snapshot copy is restored into fresh caller-owned rows and the recorded
// rounds are charged.
func (p *pipeline) stageLastEdges() error {
	if ip := p.inc; ip != nil && !ip.cascade && ip.n7() == 0 && ip.snap.haveLast {
		n := p.n
		flat := make([]int, n*n)
		copy(flat, ip.snap.lastFlat)
		lh := make([][]int, n)
		for x := 0; x < n; x++ {
			lh[x] = flat[x*n : (x+1)*n]
		}
		p.out.LastHop = lh
		p.nw.ChargeRounds(ip.snap.rounds("step8-lastedge"))
		return nil
	}
	lh, err := ResolveLastEdges(p.nw, p.out.Dist)
	if err != nil {
		return err
	}
	p.out.LastHop = lh
	return nil
}
