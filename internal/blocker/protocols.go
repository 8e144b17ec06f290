// Package blocker implements the paper's deterministic blocker-set
// construction (Section 3: Algorithms 2-7 and the helper Algorithms 11-12),
// its randomized pairwise-independence variant, and two baselines (the
// greedy construction of Agarwal et al. PODC'18 [2] and random sampling).
//
// A blocker set Q for an h-hop tree collection C is a set of nodes hitting
// every root-to-leaf path of length exactly h in every tree (Definition
// 2.2). The deterministic algorithm runs in O~(|S| * h) rounds
// (Corollary 3.13), removing the n*|Q| term of the earlier greedy
// constructions.
package blocker

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// Message kinds for the per-tree protocols.
const (
	kindAncestor uint8 = iota + 20
	kindBeta
)

// collectAncestors runs the pipelined Ancestors protocol of [2] (Step 1 of
// Algorithm 7) on tree i: every node learns the ids of its proper ancestors
// up to but excluding the root, ordered nearest-first. Cost: H+1 rounds
// (each node sends its own id at round 0 and forwards received ids FIFO).
// The run starts from the tree's members.
//
// The lists come back in CSR form (off, ids), presized exactly from the
// tree depths: a node at depth d has d-1 proper non-root ancestors. The
// protocol object is pooled per worker network, and the transient cursors
// come from nw's scratch arena (the caller runs this under ShardRuns,
// which resets it before every sub-run).
func collectAncestors(nw *congest.Network, coll *csssp.Collection, i int) (off, ids []int32, err error) {
	n := nw.N()
	h := coll.H
	sc := nw.Scratch()
	proto := congest.ScratchState(sc, ancKey{}, func() *ancProto { return new(ancProto) })
	off = make([]int32, n+1) // retained by the caller for the whole Compute
	start := sc.Int32s(n)[:0]
	for v := 0; v < n; v++ {
		if d := coll.Depth[i][v]; d >= 0 {
			start = append(start, int32(v))
			if d > 1 {
				off[v+1] = int32(d - 1)
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids = make([]int32, off[n])
	recv := sc.Int32s(n)
	copy(recv, off[:n])
	*proto = ancProto{nw: nw, coll: coll, i: i, root: coll.Sources[i], h: h, off: off, ids: ids, recv: recv, fwd: sc.Int32s(n)}
	_, err = nw.RunFrom(proto, start, h+1, true)
	proto.nw, proto.coll, proto.off, proto.ids, proto.recv, proto.fwd = nil, nil, nil, nil, nil, nil
	if err != nil {
		return nil, nil, fmt.Errorf("blocker: ancestors tree %d: %w", i, err)
	}
	return off, ids, nil
}

type ancKey struct{}

// ancProto is the pipelined Ancestors protocol as a reusable object.
type ancProto struct {
	nw       *congest.Network
	coll     *csssp.Collection
	i, root  int
	h        int
	off, ids []int32 // ancestor CSR under construction
	recv     []int32 // next write slot in ids for v
	fwd      []int32 // ids forwarded so far: ids[off[v]:off[v]+fwd[v]]
}

// Step implements congest.Proto. Children are walked via the collection's
// static child CSR with a Removed filter; no removals happen while this
// protocol runs, so the walk matches a materialized snapshot exactly. A
// node receives at most one id per round and forwards one per round, so
// after its own id at round 0 it is message-driven: it stays live only
// while it has ids left to forward.
func (p *ancProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	coll, i := p.coll, p.i
	for _, m := range in {
		if m.Kind == kindAncestor {
			p.ids[p.recv[v]] = int32(m.A)
			p.recv[v]++
		}
	}
	if !coll.InTree(i, v) {
		return true
	}
	if round == 0 && v != p.root {
		// Send own id to children (the root's id is excluded from
		// ancestor lists: hyperedges drop the root).
		p.sendChildren(v, int64(v), send)
	} else if p.off[v]+p.fwd[v] < p.recv[v] {
		id := p.ids[p.off[v]+p.fwd[v]]
		p.fwd[v]++
		p.sendChildren(v, int64(id), send)
	}
	return p.off[v]+p.fwd[v] >= p.recv[v]
}

// sendChildren sends ancestor id a to v's children still in the tree.
func (p *ancProto) sendChildren(v int, a int64, send func(congest.Message)) {
	for _, c := range p.coll.ChildIDs(p.i, v) {
		if !p.coll.Removed[p.i][c] {
			send(congest.Message{Link: int32(p.nw.LinkIndex(v, int(c))), Kind: kindAncestor, A: a})
		}
	}
}

// computePijDowncastInto runs Compute-Pij (Algorithm 4): a downcast through
// tree i accumulating the number of marked (in-Vi) nodes on each
// root-to-node path, root excluded, written into beta (length n, zeroed by
// the caller). Compute-Pi (Algorithm 3) is the special case "beta >= 1".
// Cost: H+1 rounds. The run starts from the root and is message-driven
// after that. The protocol object is pooled per worker network.
func computePijDowncastInto(nw *congest.Network, coll *csssp.Collection, i int, inVi []bool, beta []int64) error {
	proto := congest.ScratchState(nw.Scratch(), pijKey{}, func() *pijProto { return new(pijProto) })
	*proto = pijProto{nw: nw, coll: coll, i: i, root: coll.Sources[i], inVi: inVi, beta: beta, have: nw.Scratch().Bools(nw.N())}
	proto.start[0] = int32(proto.root)
	_, err := nw.RunFrom(proto, proto.start[:], coll.H+1, true)
	proto.nw, proto.coll, proto.inVi, proto.beta, proto.have = nil, nil, nil, nil, nil
	if err != nil {
		return fmt.Errorf("blocker: compute-Pij tree %d: %w", i, err)
	}
	return nil
}

// computePijDowncast is computePijDowncastInto with freshly allocated
// outputs, for callers outside the pooled set-cover loop (the random-sample
// baseline's coverage check).
func computePijDowncast(nw *congest.Network, coll *csssp.Collection, i int, inVi []bool) ([]int64, error) {
	beta := make([]int64, nw.N())
	if err := computePijDowncastInto(nw, coll, i, inVi, beta); err != nil {
		return nil, err
	}
	return beta, nil
}

type pijKey struct{}

// pijProto is the Compute-Pij downcast as a reusable protocol object.
type pijProto struct {
	nw      *congest.Network
	coll    *csssp.Collection
	i, root int
	start   [1]int32 // the round-0 set: the root
	inVi    []bool
	beta    []int64
	have    []bool
}

// Step implements congest.Proto. Only the root acts in round 0; every
// other node acts on the beta its parent sends, so all nodes return true.
func (p *pijProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	coll, i := p.coll, p.i
	if round == 0 && v == p.root {
		if coll.InTree(i, v) {
			// The root's own membership is not counted (hyperedges exclude
			// the root), so it forwards beta = 0.
			p.have[v] = true
			for _, c := range coll.ChildIDs(i, v) {
				if !coll.Removed[i][c] {
					send(congest.Message{Link: int32(p.nw.LinkIndex(v, int(c))), Kind: kindBeta, A: 0})
				}
			}
		}
		return true
	}
	for _, m := range in {
		if m.Kind != kindBeta || p.have[v] || !coll.InTree(i, v) {
			continue
		}
		p.have[v] = true
		p.beta[v] = m.A
		if p.inVi[v] {
			p.beta[v]++
		}
		for _, c := range coll.ChildIDs(i, v) {
			if !coll.Removed[i][c] {
				send(congest.Message{Link: int32(p.nw.LinkIndex(v, int(c))), Kind: kindBeta, A: p.beta[v]})
			}
		}
	}
	return true
}
