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
// rather than simulated: each round's deliveries are computed over plain
// integers and fed to congest.ChargeSchedule, which replays the engine's
// per-round hooks. What a caller reads back, the sorted union of the
// inputs or the element-wise sum, is computed on the host. The engine
// protocols remain as the reference (reference.go); builds with -tags
// matcheck check every charged call against them (congest.Charged).
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
	gather gatherSchedule
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

// gatherSchedule replays the pipelined convergecast of Gather over
// integers. Every non-root node queues its own items and those its
// children send; each round it sends the first min(bandwidth, queued) of
// them to its parent, which receives them the next round. Only the nodes
// with items queued or arriving are visited, so a round costs what it
// delivers, not n.
type gatherSchedule struct {
	t       *Tree
	b       int32
	queued  []int32 // items waiting at v
	arrive  []int32 // items v receives next round
	cur     []int32 // nodes with items queued or arriving this round
	next    []int32
	mark    []uint64 // mark[v] == stamp: v is already on next
	stamp   uint64
	wordsBy []int64 // the network's WordsByNode
}

// Round implements congest.Schedule.
func (s *gatherSchedule) Round(int) (int64, bool) {
	// Items sent last round join their receivers' queues first.
	for _, v := range s.cur {
		s.queued[v] += s.arrive[v]
		s.arrive[v] = 0
	}
	s.stamp++
	s.next = s.next[:0]
	var sent int64
	for _, v := range s.cur {
		if int(v) == s.t.Root {
			s.queued[v] = 0 // the root keeps what it collects
			continue
		}
		k := min(s.b, s.queued[v])
		s.queued[v] -= k
		s.wordsBy[v] += int64(k)
		sent += int64(k)
		p := int32(s.t.Parent[v])
		s.arrive[p] += k
		s.push(p)
		if s.queued[v] > 0 {
			s.push(v)
		}
	}
	s.cur, s.next = s.next, s.cur
	return sent, len(s.cur) > 0
}

func (s *gatherSchedule) push(v int32) {
	if s.mark[v] != s.stamp {
		s.mark[v] = s.stamp
		s.next = append(s.next, v)
	}
}

// chargeGather charges the convergecast of cnt[v] items from every node v.
// The run starts from every node and ends in the round the root receives
// the last item, or after round 0 when no item is below the root.
func chargeGather(nw *congest.Network, t *Tree, cnt []int32) error {
	n := nw.N()
	s := &getState(nw).gather
	s.t, s.b, s.wordsBy = t, int32(nw.Bandwidth), nw.Stats.WordsByNode
	s.queued = congest.Grow(s.queued, n)
	s.arrive = congest.Grow(s.arrive, n)
	if len(s.mark) < n {
		s.mark = make([]uint64, n)
	}
	s.cur = s.cur[:0]
	for v, c := range cnt {
		if c > 0 && v != t.Root {
			s.queued[v] = c
			s.cur = append(s.cur, int32(v))
		}
	}
	_, err := nw.ChargeSchedule(s)
	s.t, s.wordsBy = nil, nil
	if err != nil {
		return fmt.Errorf("broadcast: gather: %w", err)
	}
	return nil
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
