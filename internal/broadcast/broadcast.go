// Package broadcast implements the communication primitives of Appendix A.1
// of the paper on top of the CONGEST simulator:
//
//   - Lemma A.1: a node can broadcast k values to all nodes in O(n+k) rounds.
//   - Lemma A.2: all nodes can broadcast one value each to all nodes in O(n)
//     rounds.
//
// Both are realized by pipelining items over a BFS spanning tree of the
// communication graph: a convergecast ("gather") moves items to the root in
// O(depth + K) rounds and a pipelined flood ("broadcast") moves them from
// the root to everyone in O(depth + K) rounds, where K is the total number
// of items. The package also exposes the BFS-tree construction itself
// (flooding, O(diameter) rounds), which Step 2 of Algorithm 7 uses.
package broadcast

import (
	"fmt"
	"sort"

	"congestapsp/internal/congest"
)

// Item is one pipelined value: three machine words of payload. By
// convention A carries a node id when the item is attributed to a source.
// An Item costs one bandwidth unit on a link, matching the paper's
// "constant number of ids and distance values per edge per round".
type Item struct {
	A, B, C int64
}

// Tree is a rooted BFS spanning tree of the communication graph.
type Tree struct {
	Root     int
	Parent   []int // Parent[root] = -1
	Depth    []int
	Children [][]int
	Height   int
}

// Message kinds used by the protocols in this package.
const (
	kindBFSExplore uint8 = iota + 1
	kindGather
	kindFlood
)

// BuildBFS constructs a BFS spanning tree rooted at root by distributed
// flooding. It consumes O(diameter) rounds on nw and returns the tree. An
// error is returned if the communication graph is disconnected.
//
// The returned Tree aliases pooled per-network storage: it is valid until
// the next BuildBFS on the same Network. Every consumer in this repository
// builds one tree per network (or rebuilds the identical root-0 tree), so
// the pipeline's repeated constructions reuse one footprint.
func BuildBFS(nw *congest.Network, root int) (*Tree, error) {
	n := nw.N()
	st := getState(nw)
	t := &st.tree
	t.Root = root
	t.Height = 0
	if cap(t.Parent) < n {
		t.Parent = make([]int, n)
		t.Depth = make([]int, n)
		t.Children = make([][]int, n)
	}
	t.Parent = t.Parent[:n]
	t.Depth = t.Depth[:n]
	t.Children = t.Children[:n]
	if cap(st.bfsJoined) < n {
		st.bfsJoined = make([]bool, n)
	}
	st.bfsJoined = st.bfsJoined[:n]
	clear(st.bfsJoined)
	for v := 0; v < n; v++ {
		t.Parent[v] = -1
		t.Depth[v] = -1
	}
	st.bfsJoined[root] = true
	t.Depth[root] = 0

	st.bfs = bfsProto{nw: nw, st: st, root: root}
	if _, err := nw.Run(&st.bfs, n+2); err != nil {
		return nil, fmt.Errorf("broadcast: BFS construction: %w", err)
	}
	// Child lists come out of one pooled arena via a counting pass; rows
	// are ascending because v ascends.
	st.childFill = congest.Grow(st.childFill, n)
	fill := st.childFill
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		if !st.bfsJoined[v] {
			return nil, fmt.Errorf("broadcast: node %d unreachable from root %d (communication graph disconnected)", v, root)
		}
		fill[t.Parent[v]]++
		if t.Depth[v] > t.Height {
			t.Height = t.Depth[v]
		}
	}
	if cap(st.childArena) < n {
		st.childArena = make([]int, n)
	}
	arena := st.childArena[:n]
	off := 0
	for v := 0; v < n; v++ {
		c := int(fill[v])
		t.Children[v] = arena[off : off : off+c]
		off += c
	}
	for v := 0; v < n; v++ {
		if v != root {
			p := t.Parent[v]
			t.Children[p] = append(t.Children[p], v)
		}
	}
	return t, nil
}

// bfsProto is the BFS flood of BuildBFS as a reusable protocol object.
type bfsProto struct {
	nw   *congest.Network
	st   *bcastState
	root int
}

// Step implements congest.Proto.
func (p *bfsProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	nw, t := p.nw, &p.st.tree
	if round == 0 {
		if v == p.root {
			for _, u := range nw.Neighbors(v) {
				send(congest.Message{To: u, Kind: kindBFSExplore, A: int64(t.Depth[v])})
			}
		}
		return v != p.root
	}
	if p.st.bfsJoined[v] {
		return true
	}
	// First round with an explore message: join under the smallest-id
	// sender (deterministic), then propagate.
	best := -1
	var d int64
	for _, m := range in {
		if m.Kind != kindBFSExplore {
			continue
		}
		if best == -1 || m.From < best {
			best = m.From
			d = m.A
		}
	}
	if best == -1 {
		return false
	}
	p.st.bfsJoined[v] = true
	t.Parent[v] = best
	t.Depth[v] = int(d) + 1
	for _, u := range nw.Neighbors(v) {
		if u != best {
			send(congest.Message{To: u, Kind: kindBFSExplore, A: int64(t.Depth[v])})
		}
	}
	return true
}

// bcastKey keys the pooled per-network state of this package's primitives
// in the network's scratch registry. The pipeline runs thousands of
// gathers, floods and aggregation waves per Network; pooling their queue
// arenas and protocol objects makes a steady-state call allocation-free.
type bcastKey struct{}

type bcastState struct {
	// Gather state: per-node totals, depth-descending order (counting sort
	// buckets), FIFO queue views carved from one grow-only item arena, and
	// the result buffer.
	totalBelow []int32
	bucket     []int32
	order      []int32
	queue      [][]Item
	arena      []Item
	head, sent []int32
	collected  []Item
	gather     gatherProto

	// Broadcast (flood) state: per-node received and forwarded counts,
	// plus the canonical-order result buffer (distinct from Gather's
	// collected, whose contents are often this call's input).
	got, fwd []int32
	outBuf   []Item
	bcast    floodProto

	// GatherSum state: the flat n x m accumulator.
	acc []int64
	sum sumProto

	// BuildBFS state: the pooled tree (returned by pointer) and its
	// construction scratch.
	tree       Tree
	bfsJoined  []bool
	childArena []int
	childFill  []int32
	bfs        bfsProto
}

func getState(nw *congest.Network) *bcastState {
	return congest.ScratchState(nw.Scratch(), bcastKey{}, func() *bcastState { return new(bcastState) })
}

// growItems returns buf with length exactly n, reallocating only when the
// capacity has never been this large before.
func growItems(buf []Item, n int) []Item {
	if cap(buf) < n {
		return make([]Item, n)
	}
	return buf[:n]
}

// Gather convergecasts all items to the tree root, pipelined at the
// network bandwidth. perNode[v] is the list of items originating at v. The
// returned slice is the collection now known at the root, sorted
// canonically; it aliases pooled per-network storage and is valid until
// the next broadcast-package call on the same Network (callers consume it
// immediately). Rounds consumed: O(height + K/bandwidth), K total items.
func Gather(nw *congest.Network, t *Tree, perNode [][]Item) ([]Item, error) {
	n := nw.N()
	st := getState(nw)
	// Compute per-node totals bottom-up (local knowledge in a real system
	// would be a convergecast of counts; the schedule below does not depend
	// on these values, they only drive the done flags and presize the
	// queues — every item passing through v is known up front, so the hot
	// loop never regrows a queue). Nodes are ordered by decreasing depth
	// with a pooled counting sort.
	st.bucket = congest.Grow(st.bucket, t.Height+2)
	bucket := st.bucket
	for v := 0; v < n; v++ {
		bucket[t.Height-t.Depth[v]+1]++
	}
	for d := 1; d < len(bucket); d++ {
		bucket[d] += bucket[d-1]
	}
	st.order = congest.Grow(st.order, n)
	order := st.order
	for v := 0; v < n; v++ {
		d := t.Height - t.Depth[v]
		order[bucket[d]] = int32(v)
		bucket[d]++
	}
	st.totalBelow = congest.Grow(st.totalBelow, n)
	totalBelow := st.totalBelow
	for _, v32 := range order {
		v := int(v32)
		totalBelow[v] += int32(len(perNode[v]))
		if v != t.Root {
			totalBelow[t.Parent[v]] += totalBelow[v]
		}
	}
	// Carve the per-node FIFO queues out of one pooled arena; capacities
	// are exact, so the hot loop never regrows a queue.
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
	budget := t.Height + total + 4
	_, err := nw.Run(&st.gather, budget+n)
	if err != nil {
		return nil, fmt.Errorf("broadcast: gather: %w", err)
	}
	st.collected = append(st.collected, perNode[t.Root]...)
	sortItems(st.collected)
	return st.collected, nil
}

// gatherProto is the pipelined convergecast of Gather as a reusable
// protocol object.
type gatherProto struct {
	nw      *congest.Network
	t       *Tree
	st      *bcastState
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
		send(congest.Message{To: t.Parent[v], Kind: kindGather, A: it.A, B: it.B, C: it.C})
		st.sent[v]++
		b--
	}
	return st.sent[v] >= st.totalBelow[v]
}

// Broadcast floods the root's items to every node, pipelined. After it
// returns, every node knows all items (Lemma A.1: O(n + k) rounds; with the
// BFS tree it is O(height + k) here). The items are returned in canonical
// order as the view every node now holds; like Gather's result, the slice
// aliases pooled per-network storage valid until the next broadcast call.
func Broadcast(nw *congest.Network, t *Tree, items []Item) ([]Item, error) {
	n := nw.N()
	st := getState(nw)
	k := len(items)
	// Every node receives the root's items in the root's order, so the
	// items a node holds are always a prefix of the list: counting them is
	// enough.
	st.got = congest.Grow(st.got, n)
	st.fwd = congest.Grow(st.fwd, n)

	st.bcast = floodProto{nw: nw, t: t, st: st, items: items, k: k}
	st.bcast.start[0] = int32(t.Root)
	_, err := nw.RunFrom(&st.bcast, st.bcast.start[:], t.Height+k+4+n, false)
	st.bcast.items = nil
	if err != nil {
		return nil, fmt.Errorf("broadcast: broadcast: %w", err)
	}
	if cap(st.outBuf) < k {
		st.outBuf = make([]Item, 0, k)
	}
	out := append(st.outBuf[:0], items...)
	st.outBuf = out
	sortItems(out)
	return out, nil
}

// floodProto is the pipelined flood of Broadcast as a reusable protocol
// object.
type floodProto struct {
	nw    *congest.Network
	t     *Tree
	st    *bcastState
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
			send(congest.Message{To: c, Kind: kindFlood, A: it.A, B: it.B, C: it.C})
		}
		b--
	}
	return st.fwd[v] >= have
}

// AllToAll implements Lemma A.2 generalized to multiple items per node:
// every node contributes perNode[v] and afterwards every node knows the
// union. Rounds: O(height + K/bandwidth) for gather plus the same for the
// downward flood, i.e. O(n + K) in the worst case, matching O(n) for one
// item per node.
func AllToAll(nw *congest.Network, t *Tree, perNode [][]Item) ([]Item, error) {
	up, err := Gather(nw, t, perNode)
	if err != nil {
		return nil, err
	}
	return Broadcast(nw, t, up)
}

// CarveItems builds per-node item lists with exact capacities carved from
// one backing arena: cnt[v] is the number of items node v will append.
// Callers count first, carve, then append — two allocations instead of one
// per contributing node.
func CarveItems(cnt []int32) [][]Item {
	total := 0
	for _, c := range cnt {
		total += int(c)
	}
	arena := make([]Item, total)
	out := make([][]Item, len(cnt))
	off := 0
	for v, c := range cnt {
		if c > 0 {
			end := off + int(c)
			out[v] = arena[off:off:end]
			off = end
		}
	}
	return out
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].A != items[j].A {
			return items[i].A < items[j].A
		}
		if items[i].B != items[j].B {
			return items[i].B < items[j].B
		}
		return items[i].C < items[j].C
	})
}
