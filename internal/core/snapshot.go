package core

import (
	"congestapsp/internal/bford"
	"congestapsp/internal/csssp"
	"congestapsp/internal/mat"
	"congestapsp/internal/qsink"
)

// This file holds the session's result snapshot: after every successful
// run the session takes ownership of the pipeline's
// intermediate artifacts and keeps session-owned copies of the outputs, so
// that a run following ApplyUpdates can re-execute only the label systems
// the damage report marked dirty and restore everything else. See
// DESIGN.md §10 for the damage model and the per-stage reuse argument.

// snapKey identifies the resolved run configuration a snapshot is valid
// for. Two option sets with equal keys produce bit-identical pipelines;
// execution-mode knobs (Parallel, RetrySequential, OnRound) are
// deliberately absent because they never change results or round counts.
type snapKey struct {
	variant  Variant
	h        int
	bw       int
	seed     int64
	skipLast bool
}

// snapshot is the armed post-run state. The collection, matrices, and
// q-sink result are owned by the session once captured (no Result
// exposes them, so taking ownership steals no caller state; the next cold
// run rebuilds the collection in place); the distance and last-hop
// outputs are COPIES, because Result matrices are caller-owned and must
// survive later runs untouched.
type snapshot struct {
	valid    bool
	fellBack bool // next run must be cold (topology change, threshold, options)
	key      snapKey

	coll      *csssp.Collection
	Q         []int
	deltaH    *mat.Matrix
	deltaHops [][]int // convergence levels of the deltaH rows (damage metadata)
	delta     *mat.Matrix
	qres      *qsink.Result

	distFlat []int64 // n x n row-major copy of the final distances
	lastFlat []int   // n x n row-major copy of LastHop (empty when skipped)
	haveLast bool

	stats  Stats
	stages []StageTiming

	// qsnap points at the session-owned q-sink capture (the arena lives on
	// the Session so it outlives every pipeline object).
	qsnap *qsink.Snapshot

	// Damage state accumulated by ApplyUpdates since capture: per-source
	// dirtiness of the Step-1 out-trees (dirty1, by vertex), the Step-3
	// in-systems (dirty3, by blocker index), the Step-7 extension rows
	// (dirty7, by vertex), and whether any label system internal to the
	// Step-6 q-sink run was hit (qsinkDirty — those systems are not
	// individually re-runnable, so one hit re-runs the whole stage).
	dirty1, dirty7 []bool
	dirty3         []bool
	qsinkDirty     bool
}

// rounds returns the recorded round count of the named stage (0 when the
// stage was skipped in the captured run).
func (sn *snapshot) rounds(name string) int {
	for i := range sn.stages {
		if sn.stages[i].Name == name {
			return sn.stages[i].Rounds
		}
	}
	return 0
}

// damage folds one weight update (the edge joining u,v, weight wOld ->
// wNew) into the dirty sets, testing every tracked label system against its
// snapshot rows. Hop-UNBOUNDED systems (the Step-7 final distance rows, the
// q-sink paired full SSSPs) are judged by the O(1) relaxation test alone;
// hop-bounded systems (the Step-1 out-trees, the Step-3 in-systems, the
// q-sink CQ labels) additionally pass through the hop-bound gate and, when
// it opens, a replay that re-runs the system with bford on the current
// graph and compares its final labels with the captured rows (hops.go) —
// the relaxation test cannot see below-convergence Pareto points in a
// collapsed final row. Updates are always tested against the rows captured
// at snapshot time, so flags accumulate soundly across several batches: a
// clean verdict keeps "this system's fixed point on the current graph
// equals the captured one" through the entire sequence.
func (s *Session) damage(u, v int, wOld, wNew int64) {
	sn := &s.snap
	wmin := minW(wOld, wNew)
	directed := s.g.Directed
	if s.hops == nil {
		s.hops = buildHopTables(s.nw)
	}
	boundedDirty := func(D []int64, C []int, mode bford.Mode, root, bound int) bool {
		if arcDamages(D, u, v, wmin, directed, mode) {
			return true
		}
		return hopGate(C, s.hops.row(mode, root), u, v, directed, mode) &&
			s.hops.replayDiffers(D, C, root, bound, mode)
	}
	for i := range sn.dirty1 {
		if !sn.dirty1[i] && boundedDirty(sn.coll.Label[i], sn.coll.LabelHops[i],
			sn.coll.Mode, sn.coll.Sources[i], 2*sn.coll.H) {
			sn.dirty1[i] = true
		}
	}
	for ci := range sn.dirty3 {
		if !sn.dirty3[ci] && boundedDirty(sn.deltaH.Row(ci), sn.deltaHops[ci],
			bford.In, sn.Q[ci], sn.key.h) {
			sn.dirty3[ci] = true
		}
	}
	if !sn.qsinkDirty {
		for _, row := range sn.qsnap.Rows {
			dirty := false
			if row.Hops == nil {
				dirty = arcDamages(row.Dist, u, v, wmin, directed, row.Mode)
			} else {
				dirty = boundedDirty(row.Dist, row.Hops, row.Mode, row.Root, row.Bound)
			}
			if dirty {
				sn.qsinkDirty = true
				break
			}
		}
	}
	n := len(sn.dirty7)
	for x := range sn.dirty7 {
		if !sn.dirty7[x] && arcDamages(sn.distFlat[x*n:(x+1)*n], u, v, wmin, directed, bford.Out) {
			sn.dirty7[x] = true
		}
	}
}

// adaptiveFallback estimates, from the captured per-stage round counts,
// the cost of the incremental path implied by the current dirty sets, and
// trips fellBack when the expected saving is too small to justify it
// (re-running most sources through the partial path costs slightly MORE
// than a cold run, because the reused stages still pay comparison and copy
// overhead). Stage-1 damage is weighted by the chance of cascading into a
// full stage 2-8 re-run. The 75% threshold is a heuristic over the
// recorded simulation, not a correctness boundary — both paths produce
// bit-identical results. The cost proxy is deliberately the deterministic
// round counters, never host wall clocks: the fallback verdict is exposed
// in update responses (UpdateStats.FellBack, apspd's fell_back field), so
// it must be a pure function of graph + damage or the serving layer's
// byte-stable transcript contract breaks.
func (sn *snapshot) adaptiveFallback() {
	if !sn.valid || sn.fellBack {
		return
	}
	total := 0.0
	for i := range sn.stages {
		total += float64(sn.stages[i].Rounds)
	}
	if total <= 0 {
		return
	}
	roundsF := func(name string) float64 { return float64(sn.rounds(name)) }
	n, q := len(sn.dirty1), len(sn.dirty3)
	est := 0.0
	if n > 0 {
		f1 := float64(countTrue(sn.dirty1)) / float64(n)
		// A refreshed stage-1 tree that actually changed cascades into a
		// cold stage 2-8; charge the cascade at the damage fraction.
		est += f1 * (roundsF("step1-csssp") + (total - roundsF("step1-csssp")))
	}
	if q > 0 {
		est += float64(countTrue(sn.dirty3)) / float64(q) * roundsF("step3-insssp")
	}
	if sn.qsinkDirty {
		est += roundsF("step6-qsink")
	}
	if n > 0 {
		est += float64(countTrue(sn.dirty7)) / float64(n) * roundsF("step7-extend")
	}
	if countTrue(sn.dirty7) > 0 {
		est += roundsF("step8-lastedge")
	}
	if est >= 0.75*total {
		sn.fellBack = true
	}
}

// incPlan is the damage report handed to the pipeline for one incremental
// run: index lists derived from the snapshot's dirty sets, plus the
// cascade flag stages flip when a refreshed fixed point actually changed
// (forcing every later stage to run its cold body).
type incPlan struct {
	snap       *snapshot
	dirty1     []int  // stage-1 tree indices to refresh
	dirty3     []int  // stage-3 blocker indices to refresh
	dirty7     []bool // per-source stage-7 re-run set (stage 6 may add to it)
	qsinkDirty bool
	cascade    bool
}

// n7 counts the stage-7 sources currently marked for re-run.
func (ip *incPlan) n7() int { return countTrue(ip.dirty7) }

// buildPlan converts the accumulated dirty sets into the per-run plan.
// dirty7 is copied: stage 6 can add sources when a q-sink re-run moved
// blocker values, and that must not contaminate the session state if the
// run later fails.
func (sn *snapshot) buildPlan() *incPlan {
	ip := &incPlan{snap: sn}
	for i, d := range sn.dirty1 {
		if d {
			ip.dirty1 = append(ip.dirty1, i)
		}
	}
	for ci, d := range sn.dirty3 {
		if d {
			ip.dirty3 = append(ip.dirty3, ci)
		}
	}
	ip.dirty7 = append([]bool(nil), sn.dirty7...)
	ip.qsinkDirty = sn.qsinkDirty
	return ip
}

func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// snapKeyOf resolves the options into the snapshot compatibility key.
func snapKeyOf(opt Options, h int) snapKey {
	bw := opt.Bandwidth
	if bw == 0 {
		bw = 1
	}
	return snapKey{
		variant:  opt.Variant,
		h:        h,
		bw:       bw,
		seed:     opt.Seed,
		skipLast: opt.SkipLastEdges,
	}
}

// capture takes ownership of the pipeline's artifacts and copies its
// outputs into session-owned storage, re-arming the snapshot for the
// session's current graph. Output copies go into grow-only arenas so a
// warm session's steady-state runs allocate only the handful of slices the
// run itself produced.
func (s *Session) capture(p *pipeline, key snapKey) {
	sn := &s.snap
	n := p.n
	sn.key = key
	sn.fellBack = false
	sn.coll = p.coll
	sn.Q = p.Q
	sn.deltaH = p.deltaH
	sn.deltaHops = p.deltaHops
	sn.delta = p.delta
	sn.qres = p.qres
	if cap(sn.distFlat) < n*n {
		sn.distFlat = make([]int64, n*n)
	}
	sn.distFlat = sn.distFlat[:n*n]
	for x := 0; x < n; x++ {
		copy(sn.distFlat[x*n:(x+1)*n], p.distM.Row(x))
	}
	sn.haveLast = p.out.LastHop != nil
	sn.lastFlat = sn.lastFlat[:0]
	if sn.haveLast {
		if cap(sn.lastFlat) < n*n {
			sn.lastFlat = make([]int, n*n)
		}
		sn.lastFlat = sn.lastFlat[:n*n]
		for x := 0; x < n; x++ {
			copy(sn.lastFlat[x*n:(x+1)*n], p.out.LastHop[x])
		}
	}
	sn.stats = p.st
	sn.stages = p.stages
	sn.dirty1 = resetBools(sn.dirty1, n)
	sn.dirty3 = resetBools(sn.dirty3, len(p.Q))
	sn.dirty7 = resetBools(sn.dirty7, n)
	sn.qsinkDirty = false
	sn.valid = true
}
