package csssp

import (
	"slices"

	"congestapsp/internal/congest"
)

// This file holds the reference protocols of the charged per-tree
// primitives: Compute-Count and Remove-Subtrees as engine protocols that
// move every message. UpcastSumInto and RemoveSubtrees charge their runs
// instead (tree.go); builds with -tags matcheck run these on a clone of
// the network after every charged call and compare the outputs here and
// the Stats and delivery stream in congest.Charged. The package tests
// compare both paths over generated trees and removal states.

const (
	kindRemove uint8 = 11
	kindCount  uint8 = 12
)

// appendMembers appends the nodes of tree i as built (Depth >= 0) to dst,
// ascending, removed nodes included: the round-0 set of the reference
// protocols, since a node outside it never acts in them.
func (c *Collection) appendMembers(dst []int32, i int) []int32 {
	dst = slices.Grow(dst, len(c.Depth[i]))
	for v, d := range c.Depth[i] {
		if d >= 0 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

type upcastKey struct{}

// upcastProto is the Compute-Count convergecast as a reusable per-network
// protocol (pooled via congest.ScratchState).
type upcastProto struct {
	nw    *congest.Network
	c     *Collection
	i     int
	acc   []int64
	start []int32 // the round-0 set: the tree's members
}

// upcastRef runs the convergecast on nw: acc (length n) ends with the
// subtree sums at tree i's nodes and 0 elsewhere.
func (c *Collection) upcastRef(nw *congest.Network, i int, init, acc []int64) error {
	p := congest.ScratchState(nw.Scratch(), upcastKey{}, func() *upcastProto { return new(upcastProto) })
	p.nw, p.c, p.i, p.acc = nw, c, i, acc
	p.start = c.appendMembers(p.start[:0], i)
	clear(acc)
	for _, v := range p.start {
		if !c.Removed[i][v] {
			acc[v] = init[v]
		}
	}
	_, err := nw.RunFrom(p, p.start, c.H+1, true)
	p.nw, p.c, p.acc = nil, nil, nil
	return err
}

// Step implements congest.Proto. A member at depth d sends at round H-d,
// when the sums of its children (sent at round H-d-1) have all arrived, and
// stays live only until then.
func (p *upcastProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	c, i, h := p.c, p.i, p.c.H
	for _, m := range in {
		if m.Kind == kindCount {
			p.acc[v] += m.A
		}
	}
	if !c.InTree(i, v) {
		return true
	}
	d := c.Depth[i][v]
	if d > 0 && round == h-d {
		send(congest.Message{Link: int32(p.nw.LinkIndex(v, c.Parent[i][v])), Kind: kindCount, A: p.acc[v]})
	}
	return round >= h-d
}

// checkUpcast runs the reference convergecast on ref and compares its sums
// with acc at nodes, the walk of tree i.
func (c *Collection) checkUpcast(ref *congest.Network, i int, init, acc []int64, nodes []int32) error {
	want := ref.Scratch().Int64s(c.G.N)
	if err := c.upcastRef(ref, i, init, want); err != nil {
		return err
	}
	for _, v := range nodes {
		if acc[v] != want[v] {
			return &congest.ErrChargeMismatch{Op: "upcast", Field: "acc", Index: int(v), Charged: acc[v], Simulated: want[v]}
		}
	}
	return nil
}

type removeKey struct{}

// removeProto is the Remove-Subtrees flood as a reusable per-network
// protocol (pooled via congest.ScratchState). The flood records the nodes
// it removes in gone and leaves Removed[i] alone, so while it runs
// Removed[i] still describes the tree as it stood when the flood started,
// the tree the flood walks.
type removeProto struct {
	nw           *congest.Network
	c            *Collection
	i, root      int
	inZ          []bool
	excludeRoots bool
	gone         []bool
	start        []int32 // the round-0 set: the tree's members
}

// removeRef runs the Remove-Subtrees flood of tree i on nw and marks the
// nodes that leave in gone (length n).
func (c *Collection) removeRef(nw *congest.Network, i int, inZ []bool, excludeRoots bool, gone []bool) error {
	p := congest.ScratchState(nw.Scratch(), removeKey{}, func() *removeProto { return new(removeProto) })
	*p = removeProto{nw: nw, c: c, i: i, root: c.Sources[i], inZ: inZ, excludeRoots: excludeRoots,
		gone: gone, start: c.appendMembers(p.start[:0], i)}
	_, err := nw.RunFrom(p, p.start, c.H+1, true)
	p.nw, p.c, p.inZ, p.gone = nil, nil, nil, nil
	return err
}

// Step implements congest.Proto. Only round 0 acts spontaneously; after it
// the flood is message-driven, so every node returns true.
func (p *removeProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	if round == 0 {
		if p.inZ[v] && p.c.InTree(p.i, v) && !(p.excludeRoots && v == p.root) {
			p.remove(v, send)
		}
		return true
	}
	for _, m := range in {
		if m.Kind == kindRemove && !p.gone[v] {
			p.remove(v, send)
		}
	}
	return true
}

// remove takes v out of the tree and floods the notice to its children in
// the pre-flood tree.
func (p *removeProto) remove(v int, send func(congest.Message)) {
	p.gone[v] = true
	for _, w := range p.c.ChildIDs(p.i, v) {
		if !p.c.Removed[p.i][w] {
			send(congest.Message{Link: int32(p.nw.LinkIndex(v, int(w))), Kind: kindRemove})
		}
	}
}

// checkRemove runs the reference flood on ref and compares the nodes it
// removes with those of the charged walk w (leave[k] >= 0), over all n
// nodes.
func (c *Collection) checkRemove(ref *congest.Network, i int, inZ []bool, excludeRoots bool, w *TreeWalk, leave []int32) error {
	sc := ref.Scratch()
	want, got := sc.Bools(c.G.N), sc.Bools(c.G.N)
	if err := c.removeRef(ref, i, inZ, excludeRoots, want); err != nil {
		return err
	}
	for k, g := range leave {
		got[w.Nodes[k]] = g >= 0
	}
	for v := range want {
		if got[v] != want[v] {
			m := &congest.ErrChargeMismatch{Op: "remove-subtrees", Field: "removed", Index: v}
			if got[v] {
				m.Charged = 1
			} else {
				m.Simulated = 1
			}
			return m
		}
	}
	return nil
}
