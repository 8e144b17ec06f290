// Package bford implements the distributed hop-bounded Bellman-Ford
// algorithm [Bellman 1958] in the CONGEST model, the workhorse of Steps 1,
// 3 and 7 of the paper's Algorithm 1 (Lemma A.4: an h-hop SSSP costs O(h)
// rounds per source).
//
// Both orientations are provided:
//
//   - Out: shortest paths FROM the root along edge directions (out-SSSP);
//     node v learns delta_h(root, v).
//   - In: shortest paths TO the root along edge directions (in-SSSP); node v
//     learns delta_h(v, root). Messages travel against edge direction, which
//     is legal because CONGEST communication uses the underlying undirected
//     graph (paper Section 1.1).
//
// Labels are (dist, hops) compared lexicographically, so the tree realizes,
// for every node, the minimum-hop path among minimum-weight paths within the
// hop horizon; parents break remaining ties by smallest id. This is the
// deterministic tie-breaking that the CSSSP construction of [1] relies on.
package bford

import (
	"fmt"
	"sync"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// Mode selects the tree orientation.
type Mode int

const (
	// Out computes shortest paths from the root (out-SSSP).
	Out Mode = iota
	// In computes shortest paths to the root (in-SSSP).
	In
)

// String names the relaxation direction for logs and errors.
func (m Mode) String() string {
	if m == In {
		return "in"
	}
	return "out"
}

// Result is the outcome of one hop-bounded SSSP computation.
type Result struct {
	Root int
	Mode Mode
	// Dist[v] is the hop-bounded shortest-path distance (graph.Inf if no
	// path within the hop bound). For Out it is delta_h(root, v); for In it
	// is delta_h(v, root).
	Dist []int64
	// Hops[v] is the hop count of the tree path realizing Dist[v], -1 if
	// unreachable.
	Hops []int
	// Parent[v] is v's neighbor toward the root in the tree (-1 for the
	// root and for unreachable nodes). For Out trees the parent is the
	// predecessor on the path root->v; for In trees it is the successor on
	// the path v->root.
	Parent []int
	// Confirmed[v] reports that v's label composes through a confirmed
	// parent chain back to a seed, i.e. v genuinely belongs to the SSSP
	// tree. Hop-limited fringe labels can fail to compose (see the
	// confirmation wave in RunWithInit); their Dist values are still valid
	// hop-bounded distances but they carry no tree position.
	Confirmed []bool
}

// relAdj describes, for the chosen mode, the relaxation structure aligned
// with the network's links: link slot i of v sits at position off[v]+i, and
// w at that position is the weight of the arc Neighbors(v)[i] ~> v along
// which dist(v) can improve, or -1 when the link carries no arc in this
// mode. Row u of (ntfOff, ntf) lists the slots, in Neighbors(u), of the
// links to the nodes that must hear about u's label changes. Parallel
// edges are collapsed to their minimum weight: a node learns a neighbor's
// label once per round and applies its locally known minimum incident edge
// weight.
type relAdj struct {
	off    []int32
	w      []int64
	ntfOff []int32
	ntf    []int32
}

// notify returns the link slots at v of the nodes that must hear about v's
// label changes.
func (ra *relAdj) notify(v int) []int32 {
	return ra.ntf[ra.ntfOff[v]:ra.ntfOff[v+1]]
}

func buildRelAdj(nw *congest.Network, g *graph.Graph, mode Mode) *relAdj {
	n := g.N
	ra := &relAdj{off: make([]int32, n+1), ntfOff: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		ra.off[v+1] = ra.off[v] + int32(nw.Degree(v))
	}
	ra.w = make([]int64, ra.off[n])
	for i := range ra.w {
		ra.w[i] = -1
	}
	arc := func(v, u int, w int64) { // dist(v) <- dist(u) + w
		p := int(ra.off[v]) + nw.LinkIndex(v, u)
		if ra.w[p] < 0 || w < ra.w[p] {
			ra.w[p] = w
		}
	}
	for _, e := range g.Edges() {
		switch {
		case mode == Out && g.Directed:
			arc(e.V, e.U, e.W)
		case mode == In && g.Directed:
			arc(e.U, e.V, e.W)
		default: // undirected: both
			arc(e.V, e.U, e.W)
			arc(e.U, e.V, e.W)
		}
	}
	// u notifies v exactly when v relaxes over the link from u. Slots are in
	// id order, as Neighbors(u) is.
	ra.ntf = make([]int32, 0, len(ra.w))
	for u := 0; u < n; u++ {
		for i, v := range nw.Neighbors(u) {
			if ra.w[int(ra.off[v])+nw.LinkIndex(v, u)] >= 0 {
				ra.ntf = append(ra.ntf, int32(i))
			}
		}
		ra.ntfOff[u+1] = int32(len(ra.ntf))
	}
	return ra
}

// The relaxation structure depends only on (graph, mode), since the
// graph's underlying undirected graph fixes the network's links, and would
// otherwise be rebuilt for every SSSP (Step 1 alone runs n of them on the
// same graph), so a small cache keyed by graph identity pays for itself
// immediately. The graph's mutation counter is part of the key: any
// API-level mutation — AddEdge, SetEdgeWeight, RemoveEdge (the session
// update path mutates weights in place) — bumps it, so a stale entry can
// never be confused with the current topology or weights. Note the pointer
// keys pin the cached graphs (and their CSR arenas) until eviction; the
// cache is kept small so a process churning through many transient graphs
// retains at most a handful of them.
type adjKey struct {
	g       *graph.Graph
	mode    Mode
	version uint64
}

// The cache is shared by the source-sharded pipeline: every worker clone
// running an SSSP on the same (graph, mode) resolves to the same immutable
// relAdj, so the CSR relaxation structure is built once and read
// concurrently. The read path takes only an RLock; a miss upgrades to the
// write lock and re-checks, so concurrent first touches build at most once.
var (
	adjMu    sync.RWMutex
	adjCache = map[adjKey]*relAdj{}
)

func getRelAdj(nw *congest.Network, g *graph.Graph, mode Mode) *relAdj {
	key := adjKey{g, mode, g.Version()}
	adjMu.RLock()
	ra, ok := adjCache[key]
	adjMu.RUnlock()
	if ok {
		return ra
	}
	adjMu.Lock()
	defer adjMu.Unlock()
	if ra, ok = adjCache[key]; ok {
		return ra // raced with another builder; reuse its structure
	}
	ra = buildRelAdj(nw, g, mode)
	if len(adjCache) >= 8 {
		clear(adjCache) // bound retained memory; entries rebuild on demand
	}
	adjCache[key] = ra
	return ra
}

// stateKey keys the pooled per-network run state in the network's scratch
// registry.
type stateKey struct{}

// runState is the reusable per-network state of runBF: the Result whose
// vectors every run refills, the per-link confirmation-wave labels, and the
// two protocol objects. Pooling it takes a warm-network SSSP re-run to zero
// allocations — the pipeline executes thousands of them per Network.
type runState struct {
	res       Result
	confirmed []bool     // pooled Confirmed backing (nil in label-only runs)
	nbrLabel  [][2]int64 // per-link neighbor labels, aligned with ra.w
	haveLabel []bool
	start     []int32 // round-0 set: the seeds, then the reached nodes
	main      mainProto
	wave      waveProto
}

func (rs *runState) ensure(n, links int) {
	if len(rs.res.Dist) < n {
		rs.res.Dist = make([]int64, n)
		rs.res.Hops = make([]int, n)
		rs.res.Parent = make([]int, n)
		rs.confirmed = make([]bool, n)
		rs.start = make([]int32, 0, n)
	}
	rs.res.Dist = rs.res.Dist[:n]
	rs.res.Hops = rs.res.Hops[:n]
	rs.res.Parent = rs.res.Parent[:n]
	rs.confirmed = rs.confirmed[:n]
	if len(rs.nbrLabel) < links {
		rs.nbrLabel = make([][2]int64, links)
		rs.haveLabel = make([]bool, links)
	}
	rs.nbrLabel = rs.nbrLabel[:links]
	rs.haveLabel = rs.haveLabel[:links]
}

// Run computes the h-hop SSSP rooted at root, consuming exactly hops rounds
// on nw (the fixed schedule of Lemma A.4). g must be nw's input graph, nw.G:
// the relaxation structure is laid out along nw's links.
//
// The returned Result aliases per-network pooled storage: it is valid until
// the next bford run on the same Network (or worker clone). Callers that
// need the vectors longer copy them out, which every consumer in this
// repository already does. Run also resets nw's scratch arena, so it must
// not be called while slab checkouts from the same arena are still live;
// the *WithInit variants leave the arena alone for exactly that reason.
func Run(nw *congest.Network, g *graph.Graph, root, hops int, mode Mode) (*Result, error) {
	nw.Scratch().Reset()
	init := nw.Scratch().Int64sFilled(g.N, graph.Inf)
	init[root] = 0
	res, err := RunWithInit(nw, g, init, hops, mode)
	if err != nil {
		return nil, err
	}
	res.Root = root
	return res, nil
}

// RunLabels is Run without the tree-confirmation wave: only the distance
// labels are guaranteed (Parent pointers may be stale near the hop
// horizon, Confirmed is nil). Steps that consume distances but not tree
// structure (the per-blocker in-SSSPs of Step 3, the extension SSSPs of
// Step 7) use this cheaper schedule: hops+1 rounds. The result lifetime
// and scratch-reset behavior match Run.
func RunLabels(nw *congest.Network, g *graph.Graph, root, hops int, mode Mode) (*Result, error) {
	nw.Scratch().Reset()
	init := nw.Scratch().Int64sFilled(g.N, graph.Inf)
	init[root] = 0
	res, err := RunLabelsWithInit(nw, g, init, hops, mode)
	if err != nil {
		return nil, err
	}
	res.Root = root
	return res, nil
}

// RunWithInit computes hop-bounded shortest paths from the virtual source
// defined by the initial distance labels: init[v] < graph.Inf seeds node v.
// This is exactly the "extended h-hop shortest paths" primitive of Step 7
// (Section 5): blocker nodes are seeded with delta(x, c) and Bellman-Ford
// runs for the given number of hops. Root is -1 in the result.
//
// init may be backed by nw's scratch arena (the arena is not reset here),
// and the returned Result aliases pooled per-network storage valid until
// the next bford run on the same Network.
func RunWithInit(nw *congest.Network, g *graph.Graph, init []int64, hops int, mode Mode) (*Result, error) {
	return runBF(nw, g, init, hops, mode, true)
}

// RunLabelsWithInit is RunWithInit without the tree-confirmation wave; see
// RunLabels.
func RunLabelsWithInit(nw *congest.Network, g *graph.Graph, init []int64, hops int, mode Mode) (*Result, error) {
	return runBF(nw, g, init, hops, mode, false)
}

func runBF(nw *congest.Network, g *graph.Graph, init []int64, hops int, mode Mode, confirm bool) (*Result, error) {
	if len(init) != g.N {
		return nil, fmt.Errorf("bford: init length %d != n %d", len(init), g.N)
	}
	if g != nw.G {
		return nil, fmt.Errorf("bford: graph is not the network's input graph")
	}
	ra := getRelAdj(nw, g, mode)
	n := g.N
	rs := congest.ScratchState(nw.Scratch(), stateKey{}, func() *runState { return new(runState) })
	rs.ensure(n, len(ra.w))
	res := &rs.res
	res.Root = -1
	res.Mode = mode
	res.Confirmed = nil
	rs.start = rs.start[:0]
	for v := 0; v < n; v++ {
		res.Dist[v] = init[v]
		res.Parent[v] = -1
		if init[v] < graph.Inf {
			res.Hops[v] = 0
			rs.start = append(rs.start, int32(v))
		} else {
			res.Hops[v] = -1
		}
	}

	rs.main = mainProto{res: res, ra: ra, hops: hops}
	// The schedule takes hops+1 rounds: seeds send at round 0, labels at hop
	// distance r settle at round r, and the final round only receives. The
	// run starts from the seeds and is message-driven after that.
	if _, err := nw.RunFrom(&rs.main, rs.start, hops+1, true); err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP: %w", mode, err)
	}
	if !confirm {
		return res, nil
	}

	// Tree confirmation wave (hops+2 extra rounds). Near the hop horizon,
	// final lexicographic labels need not compose into a tree: a node's
	// recorded parent may have since improved to a smaller-distance,
	// larger-hop label whose own extension was cut off by the horizon.
	// The wave retains exactly the nodes whose label composes through a
	// confirmed parent chain back to a seed: every node announces its final
	// label, seeds confirm first, and a node at hop level k confirms at
	// round k+1 through the smallest-id confirmed neighbor u with
	// (dist_u + w, hops_u + 1) equal to its own label. Nodes realizing
	// true shortest paths within the horizon always confirm (shortest-path
	// prefixes are shortest and their minimum hop counts telescope), which
	// is the containment property CSSSP needs; hop-limited fringe labels
	// that no longer compose are left out of the tree (their Dist values
	// remain valid hop-bounded distances).
	res.Confirmed = rs.confirmed
	clear(res.Confirmed)
	// Neighbor labels are stored per link in a flat arena aligned with ra.w
	// (the sender of a kindFinal/kindConfirm message always has an arc into
	// the receiver: that is exactly who notify() reaches).
	clear(rs.haveLabel)
	// The wave starts from the reached nodes, which announce their labels
	// in round 0.
	rs.start = rs.start[:0]
	for v := 0; v < n; v++ {
		if res.Hops[v] >= 0 {
			rs.start = append(rs.start, int32(v))
		}
	}
	rs.wave = waveProto{rs: rs, ra: ra}
	if _, err := nw.RunFrom(&rs.wave, rs.start, hops+2, true); err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP confirmation wave: %w", mode, err)
	}
	for v := 0; v < n; v++ {
		if !res.Confirmed[v] && res.Hops[v] > 0 {
			res.Parent[v] = -1
		}
	}
	return res, nil
}

const (
	kindLabel   uint8 = 7
	kindFinal   uint8 = 8
	kindConfirm uint8 = 9
)

// mainProto is the relaxation schedule of runBF as a reusable protocol
// object (one per pooled runState, so repeated runs allocate nothing).
type mainProto struct {
	res  *Result
	ra   *relAdj
	hops int
}

// Step implements congest.Proto: relax labels received this round (sent by
// neighbors last round), then forward our label in the same round if it
// improved, so each hop costs one round. Relaxation is order-independent;
// parent tie-breaks are resolved explicitly by (dist, hops, id). Only the
// seeds act spontaneously (round 0), so every node returns true.
func (p *mainProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	res, ra := p.res, p.ra
	improved := round == 0 && res.Hops[v] == 0 // seeds announce at round 0
	off := int(ra.off[v])
	for _, m := range in {
		if m.Kind != kindLabel {
			continue
		}
		w := ra.w[off+int(m.Link)]
		if w < 0 {
			continue // label from a neighbor with no relaxation arc to v
		}
		nd, nh, from := m.A+w, int(m.B)+1, int(m.From)
		if better(nd, nh, from, res.Dist[v], res.Hops[v], res.Parent[v]) {
			res.Dist[v], res.Hops[v], res.Parent[v] = nd, nh, from
			improved = true
		}
	}
	if improved && round < p.hops {
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindLabel, A: res.Dist[v], B: int64(res.Hops[v])})
		}
	}
	return true
}

// waveProto is the tree-confirmation wave of runBF (see the comment in
// runBF for the protocol's correctness argument).
type waveProto struct {
	rs *runState
	ra *relAdj
}

// Step implements congest.Proto. Reached nodes announce in round 0 and
// seeds confirm in round 1; every later confirmation answers a confirmation
// received in the same round, so only the seeds stay live through round 1.
func (p *waveProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	rs, ra := p.rs, p.ra
	res := &rs.res
	off := int(ra.off[v])
	for _, m := range in {
		li := off + int(m.Link)
		if ra.w[li] < 0 {
			continue // no arc from the sender: it is not a notifier of v
		}
		switch m.Kind {
		case kindFinal:
			rs.nbrLabel[li] = [2]int64{m.A, m.B}
			rs.haveLabel[li] = true
		case kindConfirm:
			if res.Hops[v] != round-1 || !rs.haveLabel[li] {
				continue
			}
			lbl, from := rs.nbrLabel[li], int(m.From)
			if lbl[0]+ra.w[li] == res.Dist[v] && int(lbl[1])+1 == res.Hops[v] {
				if !res.Confirmed[v] || from < res.Parent[v] {
					res.Confirmed[v] = true
					res.Parent[v] = from
				}
			}
		}
	}
	// Messages within one round arrive together, so re-scan for the
	// smallest-id confirming sender (the loop above may have set a
	// larger id first); handled by the from < Parent check.
	switch {
	case round == 0:
		if res.Hops[v] >= 0 {
			for _, li := range ra.notify(v) {
				send(congest.Message{Link: li, Kind: kindFinal, A: res.Dist[v], B: int64(res.Hops[v])})
			}
		}
	case round == 1 && res.Hops[v] == 0:
		res.Confirmed[v] = true
		res.Parent[v] = -1
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindConfirm})
		}
	case round >= 2 && res.Confirmed[v] && res.Hops[v] == round-1:
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindConfirm})
		}
	}
	return round >= 1 || res.Hops[v] != 0
}

// better reports whether label (d1,h1) with parent p1 beats (d2,h2,p2)
// lexicographically: smaller distance, then fewer hops, then smaller parent
// id. Unreachable labels (h == -1) always lose to reachable ones.
func better(d1 int64, h1 int, p1 int, d2 int64, h2 int, p2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	if h2 == -1 {
		return h1 != -1
	}
	if h1 == -1 {
		return false
	}
	if h1 != h2 {
		return h1 < h2
	}
	// Equal (dist, hops): prefer the smaller parent id. A node with hops 0
	// is a seed and never re-parents (incoming labels have hops >= 1, so
	// they differ in the hop component and are handled above).
	return p1 < p2
}
