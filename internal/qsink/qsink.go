// Package qsink implements Step 6 of the paper's Algorithm 1: the reversed
// q-sink shortest path problem. Every source node x holds shortest-path
// distance values delta(x, c) for every blocker node c in Q (computed
// locally in Step 5), and each value must reach its blocker node c. The
// trivial solution broadcasts all O~(n^(5/3)) values in O~(n^(5/3)) rounds;
// Section 4 gives the first deterministic O~(n^(4/3))-round algorithm:
//
//   - Case (i), hops(x, c) > n^(2/3) (Algorithm 8): build an n^(2/3)-hop
//     in-CSSSP for Q, construct a second-level blocker set Q' of size
//     O~(n^(1/3)) for it, compute full SSSPs from each c' in Q', and
//     broadcast the n*|Q'| values delta(x, c'); each c recovers
//     delta(x, c) = min_c' delta(x, c') + delta(c', c).
//
//   - Case (ii), hops(x, c) <= n^(2/3) (Algorithm 9): identify a set B of
//     at most sqrt(|Q|) bottleneck nodes whose removal caps every node's
//     forwarding load at n*sqrt(|Q|) (Algorithm 13 with the Compute-Count
//     convergecast of Algorithm 14), handle values passing through B like
//     case (i), prune B's subtrees, and deliver the remaining values up the
//     pruned CSSSP trees with the round-robin pipeline of Steps 8-9
//     (analyzed via stages and frames in Section 4.3, Algorithm 10).
//
// Both cases produce upper bounds that are exact for the pairs they are
// responsible for, so each blocker takes the minimum over all candidates.
//
// The case (ii) pipeline, under either scheduler, runs on the host from
// per-(node, blocker) queue counts, since which value a node forwards
// never changes where it goes or when, and is charged round by round
// through congest.ChargeSchedule (case2.go, DESIGN.md §3): Stats,
// WordsByNode, the OnRound stream, cancellation and fault rules are those
// of the simulated run. In -tags matcheck builds every pipeline also runs
// the engine protocols of reference.go on a clone and fails on any
// difference (congest.Charged).
package qsink

import (
	"fmt"
	"math"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// Scheduler selects the delivery discipline for case (ii).
type Scheduler int

const (
	// RoundRobin is the simple scheme of Steps 8-9 of Algorithm 9: each
	// node forwards, per round, one unsent message for the next blocker in
	// cyclic order.
	RoundRobin Scheduler = iota
	// Frames is the stage/frame-structured restatement (Algorithm 10) used
	// by the analysis in Section 4.3; it is provided to measure the frame
	// progress bounds (Lemmas 4.6-4.8) directly.
	Frames
	// BroadcastAll is the trivial O~(n^(5/3)) baseline: broadcast every
	// delta(x, c) value to everyone.
	BroadcastAll
)

// String names the scheduler as it appears in experiment tables.
func (s Scheduler) String() string {
	switch s {
	case RoundRobin:
		return "roundrobin"
	case Frames:
		return "frames"
	default:
		return "broadcastall"
	}
}

// Params configures the q-sink algorithm.
type Params struct {
	Scheduler Scheduler
	// H2 overrides the case-split hop bound (0 = ceil(n^(2/3))).
	H2 int
	// Blocker configures the second-level blocker-set construction for Q'.
	Blocker blocker.Params
	// CongestionMult scales the bottleneck threshold n*sqrt(|Q|) (default 1).
	CongestionMult float64
	// SkipCase1 disables Algorithm 8 (valid when the instance has no pair
	// with hops(x, c) > H2; used by ablation benches).
	SkipCase1 bool
	// FrameQuotaScale shrinks the per-stage message quota of the Frames
	// scheduler (default 1 = the Corollary 4.7 quota n^(2/3) log^(i+1) n).
	// At simulable sizes the stage-0 quota already exceeds all traffic, so
	// the multi-stage shrinkage of Lemma 4.8 is invisible; the E8
	// experiment scales the quota down to observe it.
	FrameQuotaScale float64
	// Capture, when non-nil, records every internal Bellman-Ford fixed
	// point the run materializes (the CQ in-collection labels and the
	// paired full SSSPs for Q' and B) so a warm session can later decide
	// whether a graph update invalidates this step without re-running it.
	// The snapshot is Reset at the start of Run and owned by the caller.
	Capture *Snapshot
}

// Snapshot is the update-damage interface of one q-sink run: the distance
// rows of every internal label system, each tagged with the relaxation
// direction it was computed under. A graph update leaves the whole q-sink
// output unchanged whenever no row admits a relaxation improvement across
// any updated edge (see core's damage model; DESIGN.md §10). Row storage
// is carved from one grow-only arena so steady-state re-captures on a warm
// session allocate nothing.
type Snapshot struct {
	Rows      []SnapRow
	arena     []int64
	hopsArena []int
}

// SnapRow is one captured label system: the relaxation mode it ran under
// and its final distance row (graph.Inf for unreached nodes). Hop-BOUNDED
// systems (the CQ collection labels) additionally carry their root, hop
// bound, and the per-node hop count realizing each distance (the label's
// convergence level): the plain relaxation test is not sound for them, and
// core's damage model needs the extra fields to run its hop-bound test
// (core/hops.go). Hops == nil marks a full (n-1)-hop SSSP row, for which
// the relaxation test alone is sound.
type SnapRow struct {
	Mode  bford.Mode
	Root  int
	Bound int
	Dist  []int64
	Hops  []int
}

// Reset empties the snapshot, keeping the arenas for reuse.
func (s *Snapshot) Reset() {
	s.Rows = s.Rows[:0]
	s.arena = s.arena[:0]
	s.hopsArena = s.hopsArena[:0]
}

// add copies dist into the arena and records it under mode. Earlier rows
// may keep pointing into a superseded arena block after growth; their
// copied contents stay valid, which is all readers need.
func (s *Snapshot) add(mode bford.Mode, dist []int64) {
	start := len(s.arena)
	s.arena = append(s.arena, dist...)
	s.Rows = append(s.Rows, SnapRow{Mode: mode, Root: -1, Dist: s.arena[start:len(s.arena):len(s.arena)]})
}

// addBounded records a hop-bounded label system with its damage metadata.
func (s *Snapshot) addBounded(mode bford.Mode, root, bound int, dist []int64, hops []int) {
	s.add(mode, dist)
	start := len(s.hopsArena)
	s.hopsArena = append(s.hopsArena, hops...)
	row := &s.Rows[len(s.Rows)-1]
	row.Root, row.Bound = root, bound
	row.Hops = s.hopsArena[start:len(s.hopsArena):len(s.hopsArena)]
}

// addMatrix records every row of m under mode.
func (s *Snapshot) addMatrix(mode bford.Mode, m *mat.Matrix) {
	for i := 0; i < m.Rows(); i++ {
		s.add(mode, m.Row(i))
	}
}

// Stats decomposes the round cost; the benchmark harness reports these as
// the per-step series of Lemmas 4.1 and 4.5.
type Stats struct {
	H2              int
	QSize           int
	QPrimeSize      int
	BottleneckCount int
	CongestionBound int64
	// MaxLoadBefore/After: the maximum per-node forwarding load (the
	// congestion measure of Section 4) before and after removing B.
	MaxLoadBefore, MaxLoadAfter int64
	PipelineMessages            int64
	PipelineRounds              int
	FrameStages                 int
	// FrameQviMax[i] is max_v |Q_{v,i}| at the start of frame stage i
	// (Lemma 4.8 predicts geometric shrinkage).
	FrameQviMax []int
	RoundsTotal int
}

// Result carries the values now known at each blocker node.
type Result struct {
	// AtBlocker[ci][x] is the value blocker Q[ci] holds for source x
	// (graph.Inf if nothing was received; unreachable pairs stay Inf).
	// The rows are zero-copy views of one flat |Q| x n matrix.
	AtBlocker [][]int64
	Stats     Stats
}

// Run delivers delta(x, Q[ci]) — element (x, ci) of the n x |Q| Step-5
// matrix — to the blocker nodes. delta must be exact for every pair with a
// finite distance; unreachable pairs carry graph.Inf.
func Run(nw *congest.Network, g *graph.Graph, Q []int, delta *mat.Matrix, par Params) (*Result, error) {
	n := g.N
	q := len(Q)
	if par.Capture != nil {
		par.Capture.Reset()
	}
	if q == 0 {
		return &Result{AtBlocker: nil}, nil
	}
	if delta.Rows() != n || delta.Cols() != q {
		return nil, fmt.Errorf("qsink: delta is %dx%d, want %dx%d", delta.Rows(), delta.Cols(), n, q)
	}
	st := Stats{QSize: q}
	roundsBefore := nw.Stats.Rounds

	h2 := par.H2
	if h2 == 0 {
		h2 = int(math.Ceil(math.Pow(float64(n), 2.0/3)))
	}
	st.H2 = h2
	if par.CongestionMult <= 0 {
		par.CongestionMult = 1
	}

	at := mat.NewFilled(q, n, graph.Inf)
	for ci := range Q {
		at.Set(ci, Q[ci], delta.At(Q[ci], ci)) // a blocker knows its own value
	}

	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}

	if par.Scheduler == BroadcastAll {
		// Trivial baseline: every x broadcasts all |Q| values (Lemma A.2
		// generalized: O(n + n|Q|) rounds = O~(n^(5/3)) for |Q| =
		// O~(n^(2/3))).
		itemCnt := make([]int32, n)
		for x := 0; x < n; x++ {
			row := delta.Row(x)
			for ci := 0; ci < q; ci++ {
				if row[ci] < graph.Inf {
					itemCnt[x]++
				}
			}
		}
		items := broadcast.CarveItems(itemCnt)
		for x := 0; x < n; x++ {
			row := delta.Row(x)
			for ci := 0; ci < q; ci++ {
				if row[ci] < graph.Inf {
					items[x] = append(items[x], broadcast.Item{A: int64(x), B: int64(ci), C: row[ci]})
				}
			}
		}
		all, err := broadcast.AllToAll(nw, tree, items)
		if err != nil {
			return nil, err
		}
		for _, it := range all {
			relax(at, int(it.B), int(it.A), it.C)
		}
		st.RoundsTotal = nw.Stats.Rounds - roundsBefore
		return &Result{AtBlocker: at.RowViews(), Stats: st}, nil
	}

	// Shared substrate for both cases: the n^(2/3)-hop in-CSSSP collection
	// for source set Q (Step 1 of Algorithm 8 / input CQ of Algorithm 9).
	cq, err := csssp.Build(nw, g, Q, h2, bford.In)
	if err != nil {
		return nil, err
	}
	if par.Capture != nil {
		// The truncated CQ trees, the bottleneck loads, and the delivery
		// schedules are all functions of these raw 2*h2-hop labels plus
		// topology, so the labels are the complete damage interface of the
		// collection.
		for i := range Q {
			par.Capture.addBounded(bford.In, Q[i], 2*cq.H, cq.Label[i], cq.LabelHops[i])
		}
	}

	// ---- Case (i): hops(x, c) > n^(2/3) (Algorithm 8) ----
	if !par.SkipCase1 {
		if err := runCase1(nw, g, tree, cq, Q, delta, at, &st, par); err != nil {
			return nil, err
		}
		// The blocker construction for Q' pruned CQ's trees; restore them
		// for case (ii), which routes on the full collection.
		cq.ResetRemovals()
	}

	// ---- Case (ii): hops(x, c) <= n^(2/3) (Algorithm 9) ----
	if err := runCase2(nw, g, tree, cq, Q, delta, at, &st, par); err != nil {
		return nil, err
	}

	st.RoundsTotal = nw.Stats.Rounds - roundsBefore
	return &Result{AtBlocker: at.RowViews(), Stats: st}, nil
}

// relax lowers blocker Q[ci]'s value for source x in at to val, if val is
// smaller: each blocker keeps the minimum over all candidates.
func relax(at *mat.Matrix, ci, x int, val int64) {
	if val < at.At(ci, x) {
		at.Set(ci, x, val)
	}
}

// runCase1 implements Algorithm 8. Exactness argument (Lemma 4.1): if the
// minimum-hop shortest path from x to c has more than h2 hops, walking it
// backward from c the min-hop-to-c value decreases by at most one per step,
// so some y on it has min-hop exactly h2; y is then a depth-h2 leaf of T_c
// and the blocker Q' hits the tree path below it, placing some c' in Q' on
// a shortest x->c path.
func runCase1(nw *congest.Network, g *graph.Graph, tree *broadcast.Tree, cq *csssp.Collection,
	Q []int, delta, at *mat.Matrix, st *Stats, par Params) error {

	n := g.N
	// Step 2: second-level blocker set Q' over CQ.
	bp := par.Blocker
	qp, err := blocker.Compute(nw, cq, bp)
	if err != nil {
		return fmt.Errorf("qsink: Q' construction: %w", err)
	}
	st.QPrimeSize = len(qp.Q)
	if len(qp.Q) == 0 {
		return nil // no long-hop pairs exist
	}

	// Step 3: full in-SSSP and out-SSSP per c' (Bellman-Ford, O(n) rounds
	// each). The 2|Q'| runs are independent, so they dispatch across the
	// work-stealing worker clones; each index owns one row of each matrix.
	inD, outD, err := pairedSSSPs(nw, g, qp.Q)
	if err != nil {
		return err
	}
	if par.Capture != nil {
		par.Capture.addMatrix(bford.In, inD)
		par.Capture.addMatrix(bford.Out, outD)
	}

	// Step 4: every x broadcasts (x, c', delta(x, c')) for each c' in Q'
	// (n*|Q'| items, O(n + n|Q'|) rounds).
	itemCnt := make([]int32, n)
	for x := 0; x < n; x++ {
		for k := range qp.Q {
			if inD.At(k, x) < graph.Inf {
				itemCnt[x]++
			}
		}
	}
	items := broadcast.CarveItems(itemCnt)
	for x := 0; x < n; x++ {
		for k := range qp.Q {
			if d := inD.At(k, x); d < graph.Inf {
				items[x] = append(items[x], broadcast.Item{A: int64(x), B: int64(k), C: d})
			}
		}
	}
	all, err := broadcast.AllToAll(nw, tree, items)
	if err != nil {
		return err
	}

	// Step 5 (local at each blocker): delta(x, c) <= delta(x, c') +
	// delta(c', c).
	for _, it := range all {
		x, k, dxc := int(it.A), int(it.B), it.C
		row := outD.Row(int(k))
		for ci, c := range Q {
			if row[c] < graph.Inf {
				relax(at, ci, x, dxc+row[c])
			}
		}
	}
	return nil
}

// pairedSSSPs runs, for each node in set, a full in-SSSP and out-SSSP
// (Bellman-Ford over n-1 hops each), source-sharded when nw.Parallel is
// set. inD row k holds delta(., set[k]); outD row k holds delta(set[k], .).
// Both Algorithm 8 (Q') and the bottleneck recovery of Algorithm 9 (B) use
// this primitive.
func pairedSSSPs(nw *congest.Network, g *graph.Graph, set []int) (inD, outD *mat.Matrix, err error) {
	n := g.N
	inD = mat.New(len(set), n)
	outD = mat.New(len(set), n)
	err = nw.ShardRuns(len(set), func(w *congest.Network, k int) error {
		rin, err := bford.Run(w, g, set[k], n-1, bford.In)
		if err != nil {
			return err
		}
		copy(inD.Row(k), rin.Dist)
		rout, err := bford.Run(w, g, set[k], n-1, bford.Out)
		if err != nil {
			return err
		}
		copy(outD.Row(k), rout.Dist)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return inD, outD, nil
}
