package blocker

import (
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// This file holds the reference protocols of the charged per-tree
// protocols: the pipelined Ancestors and the Compute-Pij downcast as engine
// protocols that move every message. Builds with -tags matcheck run them
// on a clone of the network after every charged call and compare the
// outputs here and the Stats and delivery stream in congest.Charged; the
// package tests compare both paths over generated trees and removal
// states.

// Message kinds of the reference protocols.
const (
	kindAncestor uint8 = iota + 20
	kindBeta
)

type ancKey struct{}

// ancProto is the pipelined Ancestors protocol as a reusable object.
type ancProto struct {
	nw       *congest.Network
	coll     *csssp.Collection
	i, root  int
	off, ids []int32 // ancestor CSR under construction
	recv     []int32 // next write slot in ids for v
	fwd      []int32 // ids forwarded so far: ids[off[v]:off[v]+fwd[v]]
	start    []int32 // the round-0 set: the tree's members
}

// ancestorsRef runs the Ancestors protocol of tree i on nw into the CSR
// (off, ids), zeroed by the caller and laid out by ancestorOffsets. The run
// starts from the tree's members.
func ancestorsRef(nw *congest.Network, coll *csssp.Collection, i int, off, ids []int32) error {
	n := nw.N()
	sc := nw.Scratch()
	p := congest.ScratchState(sc, ancKey{}, func() *ancProto { return new(ancProto) })
	start := p.start[:0]
	for v, d := range coll.Depth[i] {
		if d >= 0 {
			start = append(start, int32(v))
		}
	}
	recv := sc.Int32s(n)
	copy(recv, off[:n])
	*p = ancProto{nw: nw, coll: coll, i: i, root: coll.Sources[i], off: off, ids: ids, recv: recv, fwd: sc.Int32s(n), start: start}
	_, err := nw.RunFrom(p, start, coll.H+1, true)
	p.nw, p.coll, p.off, p.ids, p.recv, p.fwd = nil, nil, nil, nil, nil, nil
	return err
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

// checkAncestors runs the reference Ancestors protocol on ref and compares
// its lists with the charged CSR (off, ids) at nodes, the walk of tree i.
func checkAncestors(ref *congest.Network, coll *csssp.Collection, i int, off, ids []int32, nodes []int32) error {
	sc := ref.Scratch()
	wantOff := sc.Int32s(ref.N() + 1)
	wantIds := sc.Int32s(int(ancestorOffsets(coll.Depth[i], wantOff, 0)))
	if err := ancestorsRef(ref, coll, i, wantOff, wantIds); err != nil {
		return err
	}
	for _, v := range nodes {
		want := wantIds[wantOff[v]:wantOff[v+1]]
		for j, a := range ids[off[v]:off[v+1]] {
			if a != want[j] {
				return &congest.ErrChargeMismatch{Op: "ancestors", Field: "ancestors", Index: int(v), Charged: int64(a), Simulated: int64(want[j])}
			}
		}
	}
	return nil
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

// pijRef runs the Compute-Pij downcast of tree i on nw into beta (zeroed
// by the caller). The run starts from the root and is message-driven after
// that.
func pijRef(nw *congest.Network, coll *csssp.Collection, i int, inVi []bool, beta []int64) error {
	p := congest.ScratchState(nw.Scratch(), pijKey{}, func() *pijProto { return new(pijProto) })
	*p = pijProto{nw: nw, coll: coll, i: i, root: coll.Sources[i], inVi: inVi, beta: beta, have: nw.Scratch().Bools(nw.N())}
	p.start[0] = int32(p.root)
	_, err := nw.RunFrom(p, p.start[:], coll.H+1, true)
	p.nw, p.coll, p.inVi, p.beta, p.have = nil, nil, nil, nil, nil
	return err
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

// checkPij runs the reference downcast on ref and compares its values with
// beta at nodes, the walk of tree i.
func checkPij(ref *congest.Network, coll *csssp.Collection, i int, inVi []bool, beta []int64, nodes []int32) error {
	want := ref.Scratch().Int64s(ref.N())
	if err := pijRef(ref, coll, i, inVi, want); err != nil {
		return err
	}
	for _, v := range nodes {
		if beta[v] != want[v] {
			return &congest.ErrChargeMismatch{Op: "compute-pij", Field: "beta", Index: int(v), Charged: beta[v], Simulated: want[v]}
		}
	}
	return nil
}
