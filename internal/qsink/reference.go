package qsink

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// This file holds the reference protocols of the Case 2 pipeline: the
// round robin of Algorithm 9 Steps 7-9 and the frame scheduler of
// Algorithm 10 as engine protocols that move every value. runPipeline
// executes them on the host from per-blocker queue counts and charges them
// round by round instead (case2.go); builds with -tags matcheck run these
// on a clone of the network after every pipeline and compare the blocker
// values, PipelineRounds, FrameStages and FrameQviMax here and the Stats,
// WordsByNode and delivery stream in congest.Charged. The package tests
// compare both paths over generated graphs.

// pipeMsg is one in-flight value (source x, blocker index ci).
type pipeMsg struct {
	x    int32
	ci   int32
	dist int64
}

const kindPipe uint8 = 40

// pipeState is the shared plumbing of the two reference schedulers. Queues
// are FIFO with an explicit head cursor: dequeuing advances heads[v*q+ci]
// instead of re-slicing, and a fully drained queue resets to its start so
// its backing array is reused by later appends.
//
// All per-node state (queues, heads, pending, the rows of at written on
// delivery — row ci is only written by blocker node Q[ci]) is owned by
// exactly one node's Step, per the engine's Proto contract. The one global
// value is the undelivered-message count, which the engine updates one
// Step at a time.
type pipeState struct {
	nw      *congest.Network
	cq      *csssp.Collection
	Q       []int
	q       int         // len(Q); row stride of the flat spines
	queues  [][]pipeMsg // queues[v*q+ci]: messages at v for blocker ci
	heads   []int32     // heads[v*q+ci]: first unsent index
	pending []int64     // total unsent messages at v
	total   int64       // undelivered messages across all nodes
	at      *mat.Matrix // the blockers' values, relaxed on delivery
	cursor  []int32     // round-robin position in the cyclic order O per node

	rr roundRobinProto
}

type pipeKey struct{}

func newPipeState(nw *congest.Network, cq *csssp.Collection, Q []int, delta, at *mat.Matrix) *pipeState {
	n := cq.G.N
	q := len(Q)
	ps := congest.ScratchState(nw.Scratch(), pipeKey{}, func() *pipeState { return new(pipeState) })
	ps.nw, ps.cq, ps.Q, ps.q, ps.at = nw, cq, Q, q, at
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
			relax(ps.at, ci, int(m.A), m.C)
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
}

// pipelineRef is runPipeline on the engine: the values travel as messages
// and are relaxed into at as they reach their blockers.
func pipelineRef(nw *congest.Network, cq *csssp.Collection, Q []int, delta, at *mat.Matrix, st *Stats, par Params) error {
	ps := newPipeState(nw, cq, Q, delta, at)
	st.PipelineMessages = ps.total
	if ps.total == 0 {
		return nil
	}
	budget := pipelineBudget(cq.G.N, len(Q), ps.total)
	if par.Scheduler == Frames {
		return framesRef(ps, st, par, budget)
	}
	return robinRef(ps, st, budget)
}

// robinRef runs the round robin of Steps 7-9 on the engine within budget
// rounds.
func robinRef(ps *pipeState, st *Stats, budget int) error {
	ps.rr = roundRobinProto{ps: ps}
	rounds, err := ps.nw.Run(&ps.rr, budget)
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

// framesRef runs the stage/frame scheduler of Algorithm 10 on the engine
// within budget rounds: in stage i each node serves the blockers in
// Q_{v,i} (those it still has traffic for) one frame slot at a time, one
// engine run per stage.
func framesRef(ps *pipeState, st *Stats, par Params, budget int) error {
	n := ps.cq.G.N
	totalRounds := 0
	for stage := 0; ps.total > 0; stage++ {
		st.FrameStages = stage + 1
		// Q_{v,i}: the blockers each node still serves, fixed per stage.
		qvi := make([][]int, n)
		maxQvi := 0
		for v := 0; v < n; v++ {
			for ci := range ps.Q {
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
		stageRounds := stageLength(n, stage, maxQvi, par.FrameQuotaScale, budget-totalRounds)
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
		rounds, err := ps.nw.Run(p, stageRounds+2)
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

// checkPipeline runs the reference scheduler on ref, the guard's clone,
// into want, a copy of the blocker values as they were before the host
// run, and returns the first difference from the host's run as an
// *ErrChargeMismatch of op: a blocker value ("at-blocker", Index ci*n+x),
// PipelineRounds, FrameStages or FrameQviMax.
func checkPipeline(op string, ref *congest.Network, cq *csssp.Collection, Q []int, delta, want, at *mat.Matrix, st *Stats, par Params) error {
	var rst Stats
	if err := pipelineRef(ref, cq, Q, delta, want, &rst, par); err != nil {
		return err
	}
	mismatch := func(field string, i int, charged, simulated int64) error {
		return &congest.ErrChargeMismatch{Op: op, Field: field, Index: i, Charged: charged, Simulated: simulated}
	}
	for ci := 0; ci < at.Rows(); ci++ {
		got, exp := at.Row(ci), want.Row(ci)
		for x := range exp {
			if got[x] != exp[x] {
				return mismatch("at-blocker", ci*len(exp)+x, got[x], exp[x])
			}
		}
	}
	switch {
	case st.PipelineRounds != rst.PipelineRounds:
		return mismatch("pipeline-rounds", -1, int64(st.PipelineRounds), int64(rst.PipelineRounds))
	case st.FrameStages != rst.FrameStages:
		return mismatch("frame-stages", -1, int64(st.FrameStages), int64(rst.FrameStages))
	case len(st.FrameQviMax) != len(rst.FrameQviMax):
		return mismatch("frame-qvi-max", -1, int64(len(st.FrameQviMax)), int64(len(rst.FrameQviMax)))
	}
	for i, m := range rst.FrameQviMax {
		if st.FrameQviMax[i] != m {
			return mismatch("frame-qvi-max", i, int64(st.FrameQviMax[i]), int64(m))
		}
	}
	return nil
}
