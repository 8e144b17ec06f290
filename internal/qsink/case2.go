package qsink

import (
	"fmt"
	"math"

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
	Q []int, delta *mat.Matrix, st *Stats, par Params, relax func(ci, x int, val int64)) error {

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
					relax(ci, x, dxb+row[c])
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
	switch par.Scheduler {
	case Frames:
		return runFrames(nw, cq, Q, delta, st, par, relax)
	default:
		return runRoundRobin(nw, cq, Q, delta, st, relax)
	}
}

// pipeMsg is one in-flight value (source x, blocker index ci).
type pipeMsg struct {
	x    int32
	ci   int32
	dist int64
}

const kindPipe uint8 = 40

// pipeState is the shared plumbing of the two schedulers. Queues are FIFO
// with an explicit head cursor: dequeuing advances heads[v*q+ci] instead of
// re-slicing, so the hot forwarding path never copies slice headers, and a
// fully drained queue resets to its start so its backing array is reused by
// later appends instead of growing without bound.
//
// The whole structure is pooled on the Network (congest.ScratchState): the
// spines are flat n*q arrays reallocated only when the shape grows, and the
// per-queue backing arrays keep their grown capacity across runs, so a
// warm re-run allocates almost nothing.
//
// All per-node state (queues, heads, pending, sent, the at-matrix rows the
// deliver closure writes — row ci is only written by blocker node Q[ci])
// is owned by exactly one node's Step, per the engine's Proto contract.
// The one global value is the undelivered-message count, which the engine
// updates one Step at a time.
type pipeState struct {
	nw      *congest.Network
	cq      *csssp.Collection
	Q       []int
	q       int         // len(Q); row stride of the flat spines
	queues  [][]pipeMsg // queues[v*q+ci]: messages at v for blocker ci
	heads   []int32     // heads[v*q+ci]: first unsent index
	pending []int64     // total unsent messages at v
	total   int64       // undelivered messages across all nodes
	deliver func(ci, x int, val int64)
	sent    []int64 // per-node forwarded count (congestion accounting)
	cursor  []int32 // round-robin position in the cyclic order O per node

	rr roundRobinProto
}

type pipeKey struct{}

func newPipeState(nw *congest.Network, cq *csssp.Collection, Q []int, delta *mat.Matrix, deliver func(ci, x int, val int64)) *pipeState {
	n := cq.G.N
	q := len(Q)
	ps := congest.ScratchState(nw.Scratch(), pipeKey{}, func() *pipeState { return new(pipeState) })
	ps.nw, ps.cq, ps.Q, ps.q, ps.deliver = nw, cq, Q, q, deliver
	if cap(ps.queues) < n*q {
		ps.queues = make([][]pipeMsg, n*q)
	} else {
		ps.queues = ps.queues[:n*q]
		for s := range ps.queues {
			ps.queues[s] = ps.queues[s][:0]
		}
	}
	ps.heads = congest.Grow(ps.heads, n*q)
	ps.pending = congest.Grow(ps.pending, n)
	ps.sent = congest.Grow(ps.sent, n)
	ps.cursor = congest.Grow(ps.cursor, n)
	ps.total = 0
	// Seed: every alive node x in pruned tree T_ci sends its own value.
	for ci := range Q {
		for x := 0; x < n; x++ {
			if x == Q[ci] || !cq.InTree(ci, x) {
				continue
			}
			if d := delta.At(x, ci); d < graph.Inf {
				s := x*q + ci
				ps.queues[s] = append(ps.queues[s], pipeMsg{x: int32(x), ci: int32(ci), dist: d})
				ps.pending[x]++
				ps.total++
			}
		}
	}
	return ps
}

// receive ingests this round's messages at node v.
func (ps *pipeState) receive(v int, in []congest.Message) {
	for _, m := range in {
		if m.Kind != kindPipe {
			continue
		}
		ci := int(m.B)
		if ps.Q[ci] == v {
			ps.deliver(ci, int(m.A), m.C)
			ps.total--
			continue
		}
		s := v*ps.q + ci
		ps.queues[s] = append(ps.queues[s], pipeMsg{x: int32(m.A), ci: int32(ci), dist: m.C})
		ps.pending[v]++
	}
}

// queued returns the number of unsent messages at v for blocker ci.
func (ps *pipeState) queued(v, ci int) int {
	s := v*ps.q + ci
	return len(ps.queues[s]) - int(ps.heads[s])
}

// forward emits the head message of queue ci at v toward Q[ci]'s tree
// parent.
func (ps *pipeState) forward(v, ci int, send func(congest.Message)) {
	s := v*ps.q + ci
	h := ps.heads[s]
	msg := ps.queues[s][h]
	if int(h)+1 == len(ps.queues[s]) {
		ps.queues[s] = ps.queues[s][:0]
		ps.heads[s] = 0
	} else {
		ps.heads[s] = h + 1
	}
	ps.pending[v]--
	send(congest.Message{Link: int32(ps.nw.LinkIndex(v, ps.cq.Parent[ci][v])), Kind: kindPipe, A: int64(msg.x), B: int64(msg.ci), C: msg.dist})
	ps.sent[v]++
}

// runRoundRobin is Steps 7-9 of Algorithm 9: the nodes cycle through the
// blocker sequence O, forwarding one unsent message per round toward the
// next blocker with pending traffic.
func runRoundRobin(nw *congest.Network, cq *csssp.Collection, Q []int, delta *mat.Matrix,
	st *Stats, relax func(ci, x int, val int64)) error {

	n := cq.G.N
	ps := newPipeState(nw, cq, Q, delta, relax)
	st.PipelineMessages = ps.total
	if ps.total == 0 {
		return nil
	}

	// Lemma 4.3 budget with slack; the protocol stops at global delivery.
	budget := pipelineBudget(n, len(Q), ps.total)
	ps.rr = roundRobinProto{ps: ps}
	rounds, err := nw.Run(&ps.rr, budget)
	if err != nil {
		return fmt.Errorf("qsink: round-robin pipeline: %w", err)
	}
	if ps.total != 0 {
		return fmt.Errorf("qsink: pipeline finished with %d undelivered messages", ps.total)
	}
	st.PipelineRounds = rounds
	return nil
}

// roundRobinProto is the Steps 7-9 forwarding discipline as a reusable
// protocol object: each node advances its cyclic cursor to the next blocker
// with pending traffic and forwards one message per round.
type roundRobinProto struct {
	ps *pipeState
}

// Step implements congest.Proto.
func (p *roundRobinProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	ps := p.ps
	ps.receive(v, in)
	if ps.pending[v] > 0 {
		q := ps.q
		for k := 0; k < q; k++ {
			ci := (int(ps.cursor[v]) + k) % q
			if ps.queued(v, ci) > 0 {
				ps.forward(v, ci, send)
				ps.cursor[v] = int32((ci + 1) % q)
				break
			}
		}
	}
	return ps.pending[v] == 0
}

// runFrames is the stage/frame scheduler of Algorithm 10, used to observe
// the progress measure of Section 4.3: in stage i, each node serves the
// blockers in Q_{v,i} (those it still has traffic for) one frame slot at a
// time; Lemma 4.8 predicts |Q_{v,i}| shrinks geometrically with i.
func runFrames(nw *congest.Network, cq *csssp.Collection, Q []int, delta *mat.Matrix,
	st *Stats, par Params, relax func(ci, x int, val int64)) error {

	n := cq.G.N
	ps := newPipeState(nw, cq, Q, delta, relax)
	st.PipelineMessages = ps.total
	if ps.total == 0 {
		return nil
	}
	budget := pipelineBudget(n, len(Q), ps.total)
	totalRounds := 0
	logn := math.Log2(float64(n) + 1)
	quotaScale := par.FrameQuotaScale
	if quotaScale <= 0 {
		quotaScale = 1
	}
	for stage := 0; ps.total > 0; stage++ {
		st.FrameStages = stage + 1
		// Q_{v,i}: the blockers each node still serves, fixed per stage.
		qvi := make([][]int, n)
		maxQvi := 0
		for v := 0; v < n; v++ {
			for ci := range Q {
				if ps.queued(v, ci) > 0 {
					qvi[v] = append(qvi[v], ci)
				}
			}
			if len(qvi[v]) > maxQvi {
				maxQvi = len(qvi[v])
			}
		}
		if maxQvi == 0 {
			maxQvi = 1
		}
		st.FrameQviMax = append(st.FrameQviMax, maxQvi)
		// Stage length: enough frames for n^(2/3) log^(i+1) n messages per
		// served blocker (the Corollary 4.7 quota), capped by the global
		// budget; each frame has one slot per blocker in Q_{v,i}.
		quota := quotaScale * math.Ceil(math.Pow(float64(n), 2.0/3)) * math.Pow(logn, float64(stage+1))
		frames := int(quota) + 1
		stageRounds := frames * maxQvi
		if stageRounds > budget-totalRounds {
			stageRounds = budget - totalRounds
		}
		if stageRounds <= 0 {
			return fmt.Errorf("qsink: frame scheduler exceeded budget with %d messages left", ps.total)
		}
		p := congest.ProtoFunc(func(v, round int, in []congest.Message, send func(congest.Message)) bool {
			ps.receive(v, in)
			// The final round of each stage is receive-only so no message
			// is left in flight across the stage boundary.
			if round < stageRounds && len(qvi[v]) > 0 {
				slot := round % maxQvi
				if slot < len(qvi[v]) {
					ci := qvi[v][slot]
					if ps.queued(v, ci) > 0 {
						ps.forward(v, ci, send)
					}
				}
			}
			return round >= stageRounds
		})
		rounds, err := nw.Run(p, stageRounds+2)
		if err != nil {
			return fmt.Errorf("qsink: frame stage %d: %w", stage, err)
		}
		totalRounds += rounds
		if ps.total > 0 && totalRounds >= budget {
			return fmt.Errorf("qsink: frame scheduler: %d messages left at budget", ps.total)
		}
	}
	st.PipelineRounds = totalRounds
	return nil
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
