package broadcast

import (
	"fmt"

	"congestapsp/internal/congest"
)

// This file holds the reference protocols of the charged primitives: the
// pipelined convergecast, flood and aggregation as engine protocols that
// move every message. The exported primitives charge their schedules
// instead (see broadcast.go); builds with -tags matcheck run these on a
// clone of the network after every charged call and fail on any difference
// (congest.ErrChargeMismatch), and the package tests compare both paths over
// generated trees, item counts and bandwidths.

// refState is the pooled state of the reference protocols.
type refState struct {
	// Gather: per-node totals, FIFO queue views carved from one grow-only
	// item arena, and the collected items.
	totalBelow []int32
	queue      [][]Item
	arena      []Item
	head, sent []int32
	collected  []Item
	gather     gatherProto

	// Flood: per-node received and forwarded counts.
	got, fwd []int32
	flood    floodProto

	// Aggregation: the flat n x m accumulator.
	acc []int64
	sum sumProto

	// Zero items, the input of a reference run for a count-only call.
	blank  []Item
	blanks [][]Item
}

// blankItems returns per-node lists of cnt[v] zero items (pooled).
func (st *refState) blankItems(cnt []int32) [][]Item {
	total := 0
	for _, c := range cnt {
		total += int(c)
	}
	st.blank = congest.Grow(st.blank, total)
	st.blanks = congest.Grow(st.blanks, len(cnt))
	off := 0
	for v, c := range cnt {
		st.blanks[v] = st.blank[off : off+int(c)]
		off += int(c)
	}
	return st.blanks
}

// blankRow returns k zero items (pooled).
func (st *refState) blankRow(k int) []Item {
	st.blank = congest.Grow(st.blank, k)
	return st.blank
}

// growItems returns buf with length exactly n, reallocating only when the
// capacity has never been this large before.
func growItems(buf []Item, n int) []Item {
	if cap(buf) < n {
		return make([]Item, n)
	}
	return buf[:n]
}

// gatherRef convergecasts perNode to the tree root on the engine and
// returns the collection at the root, sorted canonically (pooled).
func gatherRef(nw *congest.Network, t *Tree, perNode [][]Item) ([]Item, error) {
	n := nw.N()
	st := &getState(nw).ref
	// Per-node totals bottom-up, deepest first, drive the done flags and
	// presize the queues.
	st.totalBelow = congest.Grow(st.totalBelow, n)
	totalBelow := st.totalBelow
	for k := len(t.order) - 1; k >= 0; k-- {
		v := int(t.order[k])
		totalBelow[v] += int32(len(perNode[v]))
		if v != t.Root {
			totalBelow[t.Parent[v]] += totalBelow[v]
		}
	}
	// Carve the per-node FIFO queues out of one arena with exact
	// capacities, so the step never regrows a queue.
	arenaLen := 0
	for v := 0; v < n; v++ {
		if v != t.Root {
			arenaLen += int(totalBelow[v])
		}
	}
	st.arena = growItems(st.arena, arenaLen)
	if cap(st.queue) < n {
		st.queue = make([][]Item, n)
	}
	st.queue = st.queue[:n]
	off := 0
	for v := 0; v < n; v++ {
		st.queue[v] = nil
		if v != t.Root && totalBelow[v] > 0 {
			end := off + int(totalBelow[v])
			st.queue[v] = append(st.arena[off:off:end], perNode[v]...)
			off = end
		}
	}
	st.head = congest.Grow(st.head, n)
	st.sent = congest.Grow(st.sent, n)
	total := int(totalBelow[t.Root])
	if cap(st.collected) < total {
		st.collected = make([]Item, 0, total)
	}
	st.collected = st.collected[:0]

	st.gather = gatherProto{nw: nw, t: t, st: st, rootOwn: len(perNode[t.Root])}
	if _, err := nw.Run(&st.gather, t.Height+total+4+n); err != nil {
		return nil, fmt.Errorf("broadcast: gather: %w", err)
	}
	st.collected = append(st.collected, perNode[t.Root]...)
	sortItems(st.collected)
	return st.collected, nil
}

// gatherProto is the pipelined convergecast of gatherRef.
type gatherProto struct {
	nw      *congest.Network
	t       *Tree
	st      *refState
	rootOwn int
}

// Step implements congest.Proto.
func (p *gatherProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	st, t := p.st, p.t
	for _, m := range in {
		if m.Kind != kindGather {
			continue
		}
		it := Item{m.A, m.B, m.C}
		if v == t.Root {
			st.collected = append(st.collected, it)
		} else {
			st.queue[v] = append(st.queue[v], it)
		}
	}
	if v == t.Root {
		// The root's own items never travel; it waits only for the
		// strict-descendant items.
		return len(st.collected) >= int(st.totalBelow[v])-p.rootOwn
	}
	b := p.nw.Bandwidth
	for b > 0 && int(st.head[v]) < len(st.queue[v]) {
		it := st.queue[v][st.head[v]]
		st.head[v]++
		send(congest.Message{Link: int32(p.nw.LinkIndex(v, t.Parent[v])), Kind: kindGather, A: it.A, B: it.B, C: it.C})
		st.sent[v]++
		b--
	}
	return st.sent[v] >= st.totalBelow[v]
}

// floodRef floods the root's items to every node on the engine.
func floodRef(nw *congest.Network, t *Tree, items []Item) error {
	n := nw.N()
	st := &getState(nw).ref
	// Every node receives the root's items in the root's order, so the
	// items a node holds are always a prefix of the list: counting them is
	// enough.
	st.got = congest.Grow(st.got, n)
	st.fwd = congest.Grow(st.fwd, n)
	k := len(items)
	st.flood = floodProto{nw: nw, t: t, st: st, items: items, k: k}
	st.flood.start[0] = int32(t.Root)
	_, err := nw.RunFrom(&st.flood, st.flood.start[:], t.Height+k+4+n, false)
	st.flood.items = nil
	if err != nil {
		return fmt.Errorf("broadcast: broadcast: %w", err)
	}
	return nil
}

// floodProto is the pipelined flood of floodRef.
type floodProto struct {
	nw    *congest.Network
	t     *Tree
	st    *refState
	items []Item
	k     int
	start [1]int32 // the round-0 set: the root
}

// Step implements congest.Proto. The root stays live until it has sent all
// k items; any other node forwards what it receives and stays live only
// while it is behind.
func (p *floodProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	st, t := p.st, p.t
	st.got[v] += int32(len(in)) // every message of the flood is one item
	have := st.got[v]
	if v == t.Root {
		have = int32(p.k)
	}
	b := p.nw.Bandwidth
	for b > 0 && st.fwd[v] < have {
		it := p.items[st.fwd[v]]
		st.fwd[v]++
		for _, c := range t.Children[v] {
			send(congest.Message{Link: int32(p.nw.LinkIndex(v, c)), Kind: kindFlood, A: it.A, B: it.B, C: it.C})
		}
		b--
	}
	return st.fwd[v] >= have
}

// sumRef aggregates vec at the tree root on the engine, on the fixed
// schedule of GatherSum, and returns the root's row (pooled). m is the
// longest vector's length and must be positive.
func sumRef(nw *congest.Network, t *Tree, vec [][]int64, m int) ([]int64, error) {
	n := nw.N()
	st := &getState(nw).ref
	st.acc = congest.Grow(st.acc, n*m)
	for v := 0; v < n; v++ {
		copy(st.acc[v*m:(v+1)*m], vec[v])
	}
	st.sum = sumProto{nw: nw, t: t, acc: st.acc, m: m}
	err := nw.RunFor(&st.sum, t.Height+m+1)
	st.sum.acc = nil
	if err != nil {
		return nil, fmt.Errorf("broadcast: GatherSum: %w", err)
	}
	return st.acc[t.Root*m : (t.Root+1)*m], nil
}

// sumProto is the fixed-schedule aggregation of sumRef: slot mu of node v
// lives at acc[v*m+mu].
type sumProto struct {
	nw  *congest.Network
	t   *Tree
	acc []int64
	m   int
}

// Step implements congest.Proto.
func (p *sumProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	t, m, h := p.t, p.m, p.t.Height
	for _, msg := range in {
		if msg.Kind == kindSum {
			p.acc[v*m+int(msg.A)] += msg.B
		}
	}
	if v != t.Root {
		mu := round - (h - t.Depth[v])
		if mu >= 0 && mu < m {
			send(congest.Message{Link: int32(p.nw.LinkIndex(v, t.Parent[v])), Kind: kindSum, A: int64(mu), B: p.acc[v*m+mu]})
		}
	}
	return round >= h+m
}
