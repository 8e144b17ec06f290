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
// the root to everyone in Height + ceil(K/bandwidth) rounds, where K is the
// total number of items. GatherSum aggregates per-node vectors at the root
// on a fixed schedule (Algorithms 11 and 12).
//
// The schedules of these primitives depend on the tree, the per-node item
// counts and the bandwidth, never on item values, so they are charged
// rather than simulated, in closed form: the flood's and the
// aggregation's per-round deliveries are counted from the tree's depth
// histogram and fed to congest.ChargeSchedule, and the gather's sends are
// worked out per node as runs of constant rate and fed to
// congest.ChargeFixed. Both replay the engine's per-round hooks. What a
// caller reads back, the sorted union of the inputs or the element-wise
// sum, is computed on the host. The engine protocols remain as the
// reference (reference.go); builds with -tags matcheck check every charged
// call against them (congest.Charged).
//
// The package also exposes the BFS-tree construction itself (flooding,
// O(diameter) rounds), which is simulated.
package broadcast

import (
	"cmp"
	"fmt"
	"slices"

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

	order []int32 // the nodes by nondecreasing depth, root first
}

// Message kinds used by the protocols in this package.
const (
	kindBFSExplore uint8 = iota + 1
	kindGather
	kindFlood
	kindSum
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
	// The breadth-first order: the root, then every child list in turn.
	if cap(t.order) < n {
		t.order = make([]int32, 0, n)
	}
	t.order = append(t.order[:0], int32(root))
	for k := 0; k < len(t.order); k++ {
		for _, c := range t.Children[t.order[k]] {
			t.order = append(t.order, int32(c))
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
			for i := range nw.Neighbors(v) {
				send(congest.Message{Link: int32(i), Kind: kindBFSExplore, A: int64(t.Depth[v])})
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
		if best == -1 || int(m.From) < best {
			best = int(m.From)
			d = m.A
		}
	}
	if best == -1 {
		return false
	}
	p.st.bfsJoined[v] = true
	t.Parent[v] = best
	t.Depth[v] = int(d) + 1
	for i, u := range nw.Neighbors(v) {
		if u != best {
			send(congest.Message{Link: int32(i), Kind: kindBFSExplore, A: int64(t.Depth[v])})
		}
	}
	return true
}

// bcastKey keys the pooled per-network state of this package's primitives
// in the network's scratch registry. The pipeline runs thousands of
// gathers, floods and aggregations per Network; pooling their schedules and
// result buffers makes a steady-state call allocation-free.
type bcastKey struct{}

type bcastState struct {
	cnt    []int32 // per-node item counts of the current call
	depths []int32 // depths[d]: nodes at depth 1..d of the current tree
	gather gatherState
	flood  floodSchedule
	sum    sumSchedule
	union  []Item // the sorted union returned by Gather and AllToAll
	outBuf []Item // Broadcast's sorted copy (its input is often union)

	// BuildBFS state: the pooled tree (returned by pointer) and its
	// construction scratch.
	tree       Tree
	bfsJoined  []bool
	childArena []int
	childFill  []int32
	bfs        bfsProto

	ref refState // the reference protocols (reference.go)
}

func getState(nw *congest.Network) *bcastState {
	return congest.ScratchState(nw.Scratch(), bcastKey{}, func() *bcastState { return new(bcastState) })
}

// Gather convergecasts all items to the tree root, pipelined at the
// network bandwidth. perNode[v] is the list of items originating at v. The
// returned slice is the collection now known at the root, sorted
// canonically; it aliases pooled per-network storage and is valid until
// the next broadcast-package call on the same Network (callers consume it
// immediately). Every non-root node forwards up to bandwidth queued items
// per round, so the K items below the root arrive within Height +
// ceil(K/bandwidth) rounds; the run takes at least one round.
func Gather(nw *congest.Network, t *Tree, perNode [][]Item) ([]Item, error) {
	st := getState(nw)
	err := nw.Charged("gather", func() error {
		return chargeGather(nw, t, st.countItems(perNode))
	}, func(c *congest.Network) error {
		_, err := gatherRef(c, t, perNode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st.unionOf(perNode), nil
}

// Broadcast floods the root's items to every node, pipelined: the root
// sends min(bandwidth, items left) items to each child per round and every
// other node forwards what it receives the next round, so the flood takes
// Height + ceil(k/bandwidth) rounds for k items, or 1 round when k = 0
// (Lemma A.1). The items are returned in canonical order as the view every
// node now holds; like Gather's result, the slice aliases pooled
// per-network storage valid until the next broadcast call.
func Broadcast(nw *congest.Network, t *Tree, items []Item) ([]Item, error) {
	err := nw.Charged("broadcast", func() error {
		return chargeFlood(nw, t, len(items))
	}, func(c *congest.Network) error {
		return floodRef(c, t, items)
	})
	if err != nil {
		return nil, err
	}
	st := getState(nw)
	st.outBuf = append(st.outBuf[:0], items...)
	sortItems(st.outBuf)
	return st.outBuf, nil
}

// BroadcastCount is Broadcast for a caller that needs no result: it
// charges the flood of k items from the root.
func BroadcastCount(nw *congest.Network, t *Tree, k int) error {
	return nw.Charged("broadcast", func() error {
		return chargeFlood(nw, t, k)
	}, func(c *congest.Network) error {
		return floodRef(c, t, getState(c).ref.blankRow(k))
	})
}

// AllToAll implements Lemma A.2 generalized to multiple items per node:
// every node contributes perNode[v] and afterwards every node knows the
// union. It is a Gather followed by a Broadcast of the K gathered items, so
// the flood alone takes Height + ceil(K/bandwidth) rounds, O(n + K) in the
// worst case and O(n) for one item per node. The returned union is sorted
// canonically and pooled like Gather's.
func AllToAll(nw *congest.Network, t *Tree, perNode [][]Item) ([]Item, error) {
	st := getState(nw)
	if err := allToAll(nw, t, st.countItems(perNode), perNode); err != nil {
		return nil, err
	}
	return st.unionOf(perNode), nil
}

// AllToAllCount is AllToAll for a caller that needs no result: cnt[v] is
// the number of items node v contributes.
func AllToAllCount(nw *congest.Network, t *Tree, cnt []int32) error {
	return allToAll(nw, t, cnt, nil)
}

// allToAll charges the gather of cnt and the flood of its total. The
// reference run moves perNode, or blank items when perNode is nil.
func allToAll(nw *congest.Network, t *Tree, cnt []int32, perNode [][]Item) error {
	return nw.Charged("all-to-all", func() error {
		if err := chargeGather(nw, t, cnt); err != nil {
			return err
		}
		k := 0
		for _, c := range cnt {
			k += int(c)
		}
		return chargeFlood(nw, t, k)
	}, func(c *congest.Network) error {
		if perNode == nil {
			perNode = getState(c).ref.blankItems(cnt)
		}
		up, err := gatherRef(c, t, perNode)
		if err != nil {
			return err
		}
		return floodRef(c, t, up)
	})
}

// countItems returns the pooled per-node item counts of perNode.
func (st *bcastState) countItems(perNode [][]Item) []int32 {
	st.cnt = congest.Grow(st.cnt, len(perNode))
	for v, items := range perNode {
		st.cnt[v] = int32(len(items))
	}
	return st.cnt
}

// unionOf returns the items of perNode in canonical order (pooled).
func (st *bcastState) unionOf(perNode [][]Item) []Item {
	st.union = st.union[:0]
	for _, items := range perNode {
		st.union = append(st.union, items...)
	}
	sortItems(st.union)
	return st.union
}

// depthCounts returns, pooled, the number of nodes at depths 1..d of t
// for d = 0..Height: depths[hi]-depths[lo-1] counts the nodes with depth in
// [lo, hi] for 1 <= lo.
func (st *bcastState) depthCounts(t *Tree) []int32 {
	st.depths = congest.Grow(st.depths, t.Height+1)
	for _, d := range t.Depth {
		if d > 0 {
			st.depths[d]++
		}
	}
	for d := 1; d <= t.Height; d++ {
		st.depths[d] += st.depths[d-1]
	}
	return st.depths
}

// gatherState is the pooled state of chargeGather: the sends of every
// node as runs (Bursts), node v's being sends[lo[v]:hi[v]], and the
// arrival-rate changes of the node being charged.
type gatherState struct {
	sends  []congest.Burst
	lo, hi []int32
	events []rateChange
}

// rateChange is a change of a node's arrival rate: from round r on, delta
// more items arrive per round.
type rateChange struct{ r, delta int32 }

// chargeGather charges the convergecast of cnt[v] items from every node v.
// Every non-root node queues its own items and those its children send,
// and each round sends the first min(bandwidth, queued) of them to its
// parent, which queues them the next round. The run starts from every node
// and ends in the round the root receives the last item, or after round 0
// when no item is below the root.
//
// The sends follow from the queues in closed form. Visited deepest first,
// a node's arrivals are its children's sends one round later: a few
// stretches of constant rate. Over a stretch of rate a a queue served at b
// per round sends b per round while its backlog lasts, then one partial
// round, then a per round (serve). So each node's sends are a few runs of
// constant rate, charged as congest.Bursts.
func chargeGather(nw *congest.Network, t *Tree, cnt []int32) error {
	s := &getState(nw).gather
	b := int32(nw.Bandwidth)
	s.lo = congest.Grow(s.lo, len(cnt))
	s.hi = congest.Grow(s.hi, len(cnt))
	s.sends = s.sends[:0]
	last := int32(-1)
	for k := len(t.order) - 1; k > 0; k-- {
		v := t.order[k]
		ev := s.events[:0]
		senders := 0
		for _, c := range t.Children[v] {
			runs := s.sends[s.lo[c]:s.hi[c]]
			if len(runs) > 0 {
				senders++
			}
			for _, r := range runs {
				ev = append(ev, rateChange{r.First + 1, r.Words}, rateChange{r.Last + 2, -r.Words})
			}
		}
		if senders > 1 {
			slices.SortFunc(ev, func(x, y rateChange) int { return cmp.Compare(x.r, y.r) })
		}
		s.events = ev
		s.lo[v] = int32(len(s.sends))
		backlog, from, rate := int64(cnt[v]), int32(0), int32(0)
		for _, e := range ev {
			if e.r > from {
				backlog = s.serve(v, b, from, e.r, rate, backlog)
				from = e.r
			}
			rate += e.delta
		}
		s.serve(v, b, from, -1, 0, backlog)
		s.hi[v] = int32(len(s.sends))
		if s.hi[v] > s.lo[v] {
			last = max(last, s.sends[s.hi[v]-1].Last)
		}
	}
	if _, err := nw.ChargeFixed(s.sends, 1, int(last)+2); err != nil {
		return fmt.Errorf("broadcast: gather: %w", err)
	}
	return nil
}

// serve appends node v's sends over rounds from..to-1, in which a items
// arrive per round at a queue holding backlog items and served at b per
// round, and returns the backlog left after round to-1. With to < 0 the
// stretch lasts until the queue is empty, and a is 0.
func (s *gatherState) serve(v, b, from, to, a int32, backlog int64) int64 {
	if to >= 0 && a >= b {
		s.send(v, from, to-1, b)
		return backlog + int64(a-b)*int64(to-from)
	}
	// Each round with b sent shrinks the backlog by b-a, and a round that
	// starts with less than b-a of it sends it all.
	d := int64(b - a)
	full := backlog / d
	if to >= 0 && full >= int64(to-from) {
		s.send(v, from, to-1, b)
		return backlog - d*int64(to-from)
	}
	r := from + int32(full)
	s.send(v, from, r-1, b)
	s.send(v, r, r, int32(backlog-full*d)+a)
	s.send(v, r+1, to-1, a)
	return 0
}

// send appends v's sends of rate items in each round first..last, merged
// into v's last run when they continue it.
func (s *gatherState) send(v, first, last, rate int32) {
	if first > last || rate == 0 {
		return
	}
	if k := len(s.sends) - 1; int32(k) >= s.lo[v] && s.sends[k].Words == rate && s.sends[k].Last+1 == first {
		s.sends[k].Last = last
		return
	}
	s.sends = append(s.sends, congest.Burst{V: v, First: first, Last: last, Words: rate})
}

// floodSchedule is the pipelined flood of Broadcast in closed form. The
// root sends chunk j of its k items, min(b, k-j*b) of them, to each child
// in round j, and a node at depth d forwards chunk j in round d+j. So round
// r delivers the sum over depths d of chunk(r-d) times the number of nodes
// at depth d+1.
type floodSchedule struct {
	k, b, height, rounds int
	depths               []int32
}

// Round implements congest.Schedule.
func (s *floodSchedule) Round(r int) (int64, bool) {
	// Chunks 0..full-1 carry b items each and chunk full the other k mod
	// b, so the depths that forward a full chunk in round r are counted
	// at once.
	full := s.k / s.b
	lo, hi := max(0, r-full+1), min(s.height-1, r)
	var sent int64
	if lo <= hi {
		sent = int64(s.b) * int64(s.depths[hi+1]-s.depths[lo])
	}
	if d := r - full; d >= 0 && d < s.height {
		sent += int64(s.k%s.b) * int64(s.depths[d+1]-s.depths[d])
	}
	return sent, r+1 < s.rounds
}

// chargeFlood charges the flood of k items from the root. Node v sends
// each item it has to each of its children; after an interruption a node
// at depth d has sent the chunks of the rounds from d up to the last
// completed one.
func chargeFlood(nw *congest.Network, t *Tree, k int) error {
	st := getState(nw)
	s := &st.flood
	b := nw.Bandwidth
	*s = floodSchedule{k: k, b: b, height: t.Height, rounds: 1, depths: st.depthCounts(t)}
	if k > 0 {
		s.rounds = t.Height + (k+b-1)/b
	}
	done, err := nw.ChargeSchedule(s)
	for v, ch := range t.Children {
		if len(ch) > 0 {
			sent := min(k, b*max(0, done-t.Depth[v]))
			nw.Stats.WordsByNode[v] += int64(sent) * int64(len(ch))
		}
	}
	if err != nil {
		return fmt.Errorf("broadcast: broadcast: %w", err)
	}
	return nil
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
	slices.SortFunc(items, func(x, y Item) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		if c := cmp.Compare(x.B, y.B); c != 0 {
			return c
		}
		return cmp.Compare(x.C, y.C)
	})
}
