package blocker

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// This file holds the reference protocols of the charged per-tree
// protocols: the pipelined Ancestors and the Compute-Pij downcast as engine
// protocols that move every message (the upcasts' is csssp.UpcastRef).
// Builds with -tags matcheck run them on a clone of the network after
// every charged call and compare the outputs here (checkCall) and the
// Stats and delivery stream in congest.Charged, and after every pass of
// the upcasts they recount the kept score or scoreij vector (checkCounts);
// the package tests compare both paths over generated trees and removal
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

// checkCall runs the reference protocol of call on tree i on ref and
// compares its outputs with what the set cover keeps of them:
//   - Ancestors: every node's list is its chain of Parent rows,
//     nearest-first and root excluded, which the good-set search reads;
//   - Compute-Pij: every alive full-length leaf's beta is the kept one;
//   - the score upcast: the root counts as many alive full-length leaves
//     as the kept walk's depth histogram;
//   - the scoreij upcast: the root counts the tree's kept P_ij leaves.
func (st *state) checkCall(ref *congest.Network, i int, call treeCall) error {
	coll, sc, n := st.coll, ref.Scratch(), ref.N()
	mismatch := func(field string, v int, kept, want int64) error {
		return &congest.ErrChargeMismatch{Op: callOp[call], Field: field, Index: v, Charged: kept, Simulated: want}
	}
	hl, base, removed := coll.HLeaves(i), int(st.leafOff[i]), coll.Removed[i]
	switch call {
	case callAncestors:
		off := sc.Int32s(n + 1)
		ids := sc.Int32s(int(ancestorOffsets(coll.Depth[i], off, 0)))
		if err := ancestorsRef(ref, coll, i, off, ids); err != nil {
			return err
		}
		parent := coll.Parent[i]
		for _, v := range st.walks.Tree(i).Nodes {
			u := int(v)
			for _, a := range ids[off[v]:off[v+1]] {
				if u = parent[u]; int(a) != u {
					return mismatch("ancestors", int(v), int64(u), int64(a))
				}
			}
		}
	case callPij:
		want := sc.Int64s(n)
		if err := pijRef(ref, coll, i, st.inVi, want); err != nil {
			return err
		}
		for k, v := range hl {
			if !removed[v] && want[v] != int64(st.beta[base+k]) {
				return mismatch("beta", int(v), int64(st.beta[base+k]), want[v])
			}
		}
	default:
		init, acc := sc.Int64s(n), sc.Int64s(n)
		kept := int64(st.walks.Tree(i).Hist[st.h])
		if call == callScoreij {
			kept = int64(st.pijTree[i])
		}
		for k, v := range hl {
			if !removed[v] && (call == callScore || int(st.beta[base+k]) >= st.pijLo) {
				init[v] = 1
			}
		}
		if err := coll.UpcastRef(ref, i, init, acc); err != nil {
			return err
		}
		if root := coll.Sources[i]; acc[root] != kept {
			return mismatch("acc", root, kept, acc[root])
		}
	}
	return nil
}

// checkCounts recounts what a pass of call's upcasts over every tree
// computes, from the alive full-length leaves along their Parent rows:
// score(v), the alive paths through v, or scoreij(v), the P_ij paths
// through v (the leaves whose kept beta, checked against the Compute-Pij
// reference, reaches the bound), with each tree's P_ij count and |P_ij|.
// It returns the first difference from the kept knowledge. checkCall
// compares each upcast's root count alone, and a tree with no kept P_ij
// leaf runs no scoreij upcast, so -tags matcheck builds run this after
// every pass.
func (st *state) checkCounts(call treeCall) error {
	coll := st.coll
	st.recount = congest.Grow(st.recount, st.n)
	want, kept, field := st.recount, st.score, "score"
	if call == callScoreij {
		kept, field = st.scoreij, "scoreij"
	}
	mismatch := func(field string, i int, kept, want int64) error {
		return fmt.Errorf("blocker: %s pass: %w", callName[call],
			&congest.ErrChargeMismatch{Op: callOp[call], Field: field, Index: i, Charged: kept, Simulated: want})
	}
	size := 0
	for i := range coll.Sources {
		hl, base, removed := coll.HLeaves(i), int(st.leafOff[i]), coll.Removed[i]
		paths := int32(0)
		for k, v := range hl {
			if !removed[v] && (call == callScore || int(st.beta[base+k]) >= st.pijLo) {
				paths++
				st.addPath(i, v, 1, want)
			}
		}
		if call == callScoreij && paths != st.pijTree[i] {
			return mismatch("pij-count", i, int64(st.pijTree[i]), int64(paths))
		}
		size += int(paths)
	}
	for v, w := range want {
		if kept[v] != w {
			return mismatch(field, v, kept[v], w)
		}
	}
	if call == callScoreij && st.pijSize() != size {
		return mismatch("pij-size", -1, int64(st.pijSize()), int64(size))
	}
	return nil
}
