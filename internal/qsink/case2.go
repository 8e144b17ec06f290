package qsink

import (
	"fmt"
	"math"
	"math/bits"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// runCase2 implements Algorithm 9: values for pairs with hops(x, c) <= h2
// travel up the (pruned) in-CSSSP trees of CQ under a deterministic
// schedule; values cut off by bottleneck removal are recovered through B
// exactly as case (i) recovers through Q'.
func runCase2(nw *congest.Network, g *graph.Graph, tree *broadcast.Tree, cq *csssp.Collection,
	Q []int, delta, at *mat.Matrix, st *Stats, par Params) error {

	n := g.N
	q := len(Q)

	// Step 1 (Algorithm 13): bottleneck set B.
	bound := int64(par.CongestionMult * float64(n) * math.Sqrt(float64(q)))
	st.CongestionBound = bound
	B, loadBefore, loadAfter, err := computeBottlenecks(nw, cq, tree, bound)
	if err != nil {
		return err
	}
	st.BottleneckCount = len(B)
	st.MaxLoadBefore = loadBefore
	st.MaxLoadAfter = loadAfter

	if len(B) > 0 {
		// Step 2: in-SSSP and out-SSSP per bottleneck node (independent
		// runs; source-sharded when nw.Parallel is set).
		inD, outD, err := pairedSSSPs(nw, g, B)
		if err != nil {
			return err
		}
		if par.Capture != nil {
			par.Capture.addMatrix(bford.In, inD)
			par.Capture.addMatrix(bford.Out, outD)
		}
		// Step 3: every x broadcasts delta(x, b) for each b in B.
		itemCnt := make([]int32, n)
		for x := 0; x < n; x++ {
			for k := range B {
				if inD.At(k, x) < graph.Inf {
					itemCnt[x]++
				}
			}
		}
		items := broadcast.CarveItems(itemCnt)
		for x := 0; x < n; x++ {
			for k := range B {
				if d := inD.At(k, x); d < graph.Inf {
					items[x] = append(items[x], broadcast.Item{A: int64(x), B: int64(k), C: d})
				}
			}
		}
		all, err := broadcast.AllToAll(nw, tree, items)
		if err != nil {
			return err
		}
		// Step 4 (local at blockers): delta^(B)(x, c) = min_b delta(x, b) +
		// delta(b, c).
		for _, it := range all {
			x, k, dxb := int(it.A), int(it.B), it.C
			row := outD.Row(int(k))
			for ci, c := range Q {
				if row[c] < graph.Inf {
					relax(at, ci, x, dxb+row[c])
				}
			}
		}
		// Step 5: prune B's subtrees from CQ (Algorithm 6; roots included —
		// a bottleneck that IS a blocker already has its values handled via
		// the broadcast above).
		inZ := make([]bool, n)
		for _, b := range B {
			inZ[b] = true
		}
		if err := cq.RemoveSubtrees(nw, nil, inZ, false); err != nil {
			return err
		}
	}

	// Steps 6-9: deliver the surviving values up the pruned trees.
	return runPipeline(nw, cq, Q, delta, at, st, par)
}

// runPipeline is Steps 6-9 of Algorithm 9: every value left in a pruned
// tree of cq travels up to its blocker, under the round robin of Steps 7-9
// or, with par.Scheduler Frames, under the stages and frames of Algorithm
// 10. It runs on the host from per-blocker queue counts (pipeSched) and is
// charged round by round through congest.ChargeSchedule, under
// nw.Charged("qsink-roundrobin") or nw.Charged("qsink-frames"), whose
// matcheck reference is the engine run in reference.go. The values reach
// at: each seeded value is relaxed into it once, since the run ends only
// when every value has reached its blocker. Run discards at on an error.
func runPipeline(nw *congest.Network, cq *csssp.Collection, Q []int, delta, at *mat.Matrix, st *Stats, par Params) error {
	var pre *mat.Matrix // at before the run: the reference's starting values
	if congest.ChargesChecked {
		pre = mat.New(at.Rows(), at.Cols())
		for ci := 0; ci < at.Rows(); ci++ {
			copy(pre.Row(ci), at.Row(ci))
		}
	}
	s := newPipeSched(nw, cq, Q, delta, at)
	st.PipelineMessages = s.total
	if s.total == 0 {
		return nil
	}
	// Lemma 4.3 budget with slack; the run stops at global delivery.
	budget := pipelineBudget(cq.G.N, len(Q), s.total)
	op := "qsink-roundrobin"
	if par.Scheduler == Frames {
		op = "qsink-frames"
	}
	return nw.Charged(op, func() error {
		if par.Scheduler == Frames {
			return s.runFrames(st, par, budget)
		}
		return s.runRoundRobin(st, budget)
	}, func(c *congest.Network) error {
		return checkPipeline(op, c, cq, Q, delta, pre, at, st, par)
	})
}

// schedKey keys the host pipeline's pooled state in the network's scratch
// registry.
type schedKey struct{}

// hop is a value sent this round: to its sender's parent in tree ci.
type hop struct{ to, ci int32 }

// pipeSched is the Case 2 pipeline executed on the host, with the
// transitions of roundRobinProto and the frame protocol (reference.go). A
// node's choice reads only which of its per-blocker queues are non-empty,
// and a value always moves to Parent[ci][v], whatever it is, so the run is
// payload-oblivious: pipeSched keeps per (node, blocker) only the number
// of values queued and per node a bitmask of its non-empty queues, never
// the values. Round r first applies round r-1's sends: a value at its
// blocker is delivered, any other is queued at its receiver. Then every
// sender sends one value to its parent and adds one word to
// WordsByNode:
//
//   - round robin: every node with a queued value serves the first
//     non-empty queue at or after its cursor (a bit scan) and moves its
//     cursor past it. Round r+1 takes place iff round r delivered, and a
//     run still delivering in the last round of its budget fails with the
//     engine's error;
//   - frames: Q_{v,i} is the blockers of v's non-empty queues at the start
//     of stage i, and in round r < stageRounds a node serves slot
//     r mod maxQvi of it if that queue is non-empty. Round stageRounds
//     only receives, so a stage is stageRounds+1 rounds.
//
// The whole structure is pooled on the Network, so a warm re-run
// allocates nothing.
type pipeSched struct {
	nw      *congest.Network
	cq      *csssp.Collection
	Q       []int
	q, w    int      // blockers; mask words per node
	cnt     []int32  // cnt[v*q+ci]: values queued at v for blocker ci
	mask    []uint64 // mask[v*w:][:w]: bit ci set iff cnt[v*q+ci] > 0
	pend    []int32  // values queued at v
	cursor  []int32  // round robin: the first blocker v looks at next
	front   []int32  // round robin: the nodes with a queued value
	sent    []hop    // this round's sends
	arrived []hop    // last round's sends: this round's arrivals
	total   int64    // values not yet at their blocker
	budget  int      // round robin: the rounds the engine would allow
	overrun bool     // round robin: still delivering in round budget-1

	frames      bool    // the run is a frame stage
	stageRounds int     // the stage's sending rounds
	maxQvi      int     // max_v |Q_{v,i}|, at least 1
	qviOff, qvi []int32 // Q_{v,i} is qvi[qviOff[v]:qviOff[v+1]]
	servers     []int32 // the nodes with a non-empty Q_{v,i}
}

// newPipeSched seeds nw's pooled schedule: every alive node x of pruned
// tree T_ci other than its root queues its own value when delta(x, ci) <
// Inf, and that value is relaxed into at, where the run will deliver it.
func newPipeSched(nw *congest.Network, cq *csssp.Collection, Q []int, delta, at *mat.Matrix) *pipeSched {
	n, q := cq.G.N, len(Q)
	s := congest.ScratchState(nw.Scratch(), schedKey{}, func() *pipeSched { return new(pipeSched) })
	s.nw, s.cq, s.Q, s.q, s.w = nw, cq, Q, q, (q+63)/64
	s.cnt = congest.Grow(s.cnt, n*q)
	s.mask = congest.Grow(s.mask, n*s.w)
	s.pend = congest.Grow(s.pend, n)
	s.cursor = congest.Grow(s.cursor, n)
	s.front, s.sent, s.arrived = s.front[:0], s.sent[:0], s.arrived[:0]
	s.frames = false
	s.total = 0
	for x := 0; x < n; x++ {
		row := delta.Row(x)
		for ci, c := range Q {
			if x != c && row[ci] < graph.Inf && cq.InTree(ci, x) {
				s.push(x, ci)
				s.total++
				relax(at, ci, x, row[ci])
			}
		}
	}
	return s
}

// push queues one value at v for blocker ci.
func (s *pipeSched) push(v, ci int) {
	k := v*s.q + ci
	if s.cnt[k] == 0 {
		s.mask[v*s.w+ci>>6] |= 1 << (ci & 63)
	}
	s.cnt[k]++
	if s.pend[v] == 0 && !s.frames {
		s.front = append(s.front, int32(v))
	}
	s.pend[v]++
}

// send moves one value of v's queue for blocker ci toward its parent in
// tree ci, charging v one word.
func (s *pipeSched) send(v, ci int) {
	k := v*s.q + ci
	s.cnt[k]--
	if s.cnt[k] == 0 {
		s.mask[v*s.w+ci>>6] &^= 1 << (ci & 63)
	}
	s.pend[v]--
	s.nw.Stats.WordsByNode[v]++
	s.sent = append(s.sent, hop{int32(s.cq.Parent[ci][v]), int32(ci)})
}

// next returns the first blocker at or after from in v's cyclic order
// whose queue at v is non-empty. v must have a value queued.
func (s *pipeSched) next(v, from int) int {
	m := s.mask[v*s.w : (v+1)*s.w]
	k := from >> 6
	if b := m[k] >> (from & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	// Past word k, wrapping round to word k itself, whose bits at or
	// after from are clear.
	for i := 1; i <= s.w; i++ {
		if j := (k + i) % s.w; m[j] != 0 {
			return j<<6 + bits.TrailingZeros64(m[j])
		}
	}
	panic("qsink: next on a node with no queued value")
}

// Round implements congest.Schedule.
func (s *pipeSched) Round(r int) (int64, bool) {
	for _, h := range s.arrived {
		if int(h.to) == s.Q[h.ci] {
			s.total--
		} else {
			s.push(int(h.to), int(h.ci))
		}
	}
	s.sent = s.sent[:0]
	if s.frames {
		if r < s.stageRounds {
			s.frameRound(r)
		}
	} else {
		s.robinRound()
	}
	s.arrived, s.sent = s.sent, s.arrived
	delivered := int64(len(s.arrived))
	if s.frames {
		return delivered, r < s.stageRounds
	}
	if delivered > 0 && r+1 == s.budget {
		s.overrun = true
		return delivered, false
	}
	return delivered, delivered > 0
}

// robinRound is a round robin round's sends.
func (s *pipeSched) robinRound() {
	kept := s.front[:0]
	for _, v32 := range s.front {
		v := int(v32)
		ci := s.next(v, int(s.cursor[v]))
		s.send(v, ci)
		s.cursor[v] = int32((ci + 1) % s.q)
		if s.pend[v] > 0 {
			kept = append(kept, v32)
		}
	}
	s.front = kept
}

// frameRound is a frame stage's sends in round r < stageRounds.
func (s *pipeSched) frameRound(r int) {
	slot := int32(r % s.maxQvi)
	for _, v32 := range s.servers {
		v := int(v32)
		lo, hi := s.qviOff[v], s.qviOff[v+1]
		if slot >= hi-lo {
			continue
		}
		if ci := int(s.qvi[lo+slot]); s.cnt[v*s.q+ci] > 0 {
			s.send(v, ci)
		}
	}
}

// runRoundRobin runs the round robin of Steps 7-9 and charges it as
// Run(roundRobinProto, budget) charges the reference.
func (s *pipeSched) runRoundRobin(st *Stats, budget int) error {
	s.budget, s.overrun = budget, false
	rounds, err := s.nw.ChargeSchedule(s)
	if err == nil && s.overrun {
		err = fmt.Errorf("congest: protocol did not terminate within %d rounds", budget)
	}
	if err != nil {
		return fmt.Errorf("qsink: round-robin pipeline: %w", err)
	}
	if s.total != 0 {
		return fmt.Errorf("qsink: pipeline finished with %d undelivered messages", s.total)
	}
	st.PipelineRounds = rounds
	return nil
}

// runFrames runs the stage/frame scheduler of Algorithm 10, used to
// observe the progress measure of Section 4.3: Lemma 4.8 predicts that
// |Q_{v,i}| shrinks geometrically with i. Each stage is charged as
// Run(p, stageRounds+2) charges the reference's stage.
func (s *pipeSched) runFrames(st *Stats, par Params, budget int) error {
	s.frames = true
	totalRounds := 0
	for stage := 0; s.total > 0; stage++ {
		st.FrameStages = stage + 1
		s.buildQvi()
		st.FrameQviMax = append(st.FrameQviMax, s.maxQvi)
		s.stageRounds = stageLength(s.cq.G.N, stage, s.maxQvi, par.FrameQuotaScale, budget-totalRounds)
		if s.stageRounds <= 0 {
			return fmt.Errorf("qsink: frame scheduler exceeded budget with %d messages left", s.total)
		}
		rounds, err := s.nw.ChargeSchedule(s)
		if err != nil {
			return fmt.Errorf("qsink: frame stage %d: %w", stage, err)
		}
		totalRounds += rounds
		if s.total > 0 && totalRounds >= budget {
			return fmt.Errorf("qsink: frame scheduler: %d messages left at budget", s.total)
		}
	}
	st.PipelineRounds = totalRounds
	return nil
}

// buildQvi sets Q_{v,i} for the stage from the queue masks, in ascending
// blocker order, with maxQvi (at least 1) and the nodes that serve.
func (s *pipeSched) buildQvi() {
	n := s.cq.G.N
	s.qviOff = congest.Grow(s.qviOff, n+1)
	s.qvi, s.servers = s.qvi[:0], s.servers[:0]
	s.maxQvi = 1
	for v := 0; v < n; v++ {
		for j, m := range s.mask[v*s.w : (v+1)*s.w] {
			for ; m != 0; m &= m - 1 {
				s.qvi = append(s.qvi, int32(j<<6+bits.TrailingZeros64(m)))
			}
		}
		s.qviOff[v+1] = int32(len(s.qvi))
		if k := int(s.qviOff[v+1] - s.qviOff[v]); k > 0 {
			s.servers = append(s.servers, int32(v))
			s.maxQvi = max(s.maxQvi, k)
		}
	}
}

// stageLength is the length of frame stage i, at most left rounds: enough
// frames for the Corollary 4.7 quota of n^(2/3) log^(i+1) n values per
// served blocker, scaled by quotaScale (default 1), each frame with one
// slot per blocker in Q_{v,i}.
func stageLength(n, stage, maxQvi int, quotaScale float64, left int) int {
	if quotaScale <= 0 {
		quotaScale = 1
	}
	logn := math.Log2(float64(n) + 1)
	quota := quotaScale * math.Ceil(math.Pow(float64(n), 2.0/3)) * math.Pow(logn, float64(stage+1))
	return min((int(quota)+1)*maxQvi, left)
}

// pipelineBudget is the Lemma 4.3 bound with engineering slack:
// (n^(4/3) log n + n^(4/3)) * ((1/3) log n / log log n) rounds, at least
// enough for the degenerate small-n cases.
func pipelineBudget(n, q int, msgs int64) int {
	nf := float64(n)
	logn := math.Log2(nf + 2)
	loglog := math.Log2(logn + 2)
	b := math.Pow(nf, 4.0/3) * (logn + 1) * (logn/loglog/3 + 1)
	min := float64(msgs)*float64(q+1) + 16*nf
	if b < min {
		b = min
	}
	return int(b) + 64
}
