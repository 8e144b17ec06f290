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
	"slices"
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

// relAdj describes, for the chosen mode, the relaxation structure in CSR
// form: row v of (relOff, relNbr, relW) lists the arcs (u, w) such that
// dist(v) can improve to dist(u)+w, sorted by u for binary-searched lookup,
// and row u of (ntfOff, ntf) lists the nodes v that must hear about u's
// label changes, sorted by v. Parallel edges are collapsed to their minimum
// weight: a node learns a neighbor's label once per round and applies its
// locally known minimum incident edge weight.
type relAdj struct {
	relOff []int32
	relNbr []int32
	relW   []int64
	ntfOff []int32
	ntf    []int32
}

// weight returns the relaxation weight of arc u~>v, or -1 when v has no
// relaxation arc from u.
func (ra *relAdj) weight(v, u int) int64 {
	if i := ra.arcIndex(v, u); i >= 0 {
		return ra.relW[i]
	}
	return -1
}

// arcIndex returns the absolute index of arc u~>v in relNbr/relW, or -1.
func (ra *relAdj) arcIndex(v, u int) int {
	off := int(ra.relOff[v])
	if i, ok := slices.BinarySearch(ra.relNbr[off:ra.relOff[v+1]], int32(u)); ok {
		return off + i
	}
	return -1
}

// notify returns the nodes that must hear about v's label changes.
func (ra *relAdj) notify(v int) []int32 {
	return ra.ntf[ra.ntfOff[v]:ra.ntfOff[v+1]]
}

type relArc struct {
	v, u int32
	w    int64
}

func buildRelAdj(g *graph.Graph, mode Mode) *relAdj {
	n := g.N
	pairs := make([]relArc, 0, 2*g.M())
	for _, e := range g.Edges() {
		switch {
		case mode == Out && g.Directed:
			pairs = append(pairs, relArc{int32(e.V), int32(e.U), e.W}) // dist(e.V) <- dist(e.U) + w
		case mode == In && g.Directed:
			pairs = append(pairs, relArc{int32(e.U), int32(e.V), e.W}) // dist(e.U) <- dist(e.V) + w
		default: // undirected: both
			pairs = append(pairs, relArc{int32(e.V), int32(e.U), e.W}, relArc{int32(e.U), int32(e.V), e.W})
		}
	}
	slices.SortFunc(pairs, func(a, b relArc) int {
		if a.v != b.v {
			return int(a.v - b.v)
		}
		if a.u != b.u {
			return int(a.u - b.u)
		}
		switch {
		case a.w < b.w:
			return -1
		case a.w > b.w:
			return 1
		}
		return 0
	})
	// Collapse parallel arcs: after the sort the minimum weight comes first.
	w := 0
	for i := range pairs {
		if i == 0 || pairs[i].v != pairs[w-1].v || pairs[i].u != pairs[w-1].u {
			pairs[w] = pairs[i]
			w++
		}
	}
	pairs = pairs[:w]

	ra := &relAdj{
		relOff: make([]int32, n+1),
		relNbr: make([]int32, w),
		relW:   make([]int64, w),
		ntfOff: make([]int32, n+1),
		ntf:    make([]int32, w),
	}
	for _, p := range pairs {
		ra.relOff[p.v+1]++
		ra.ntfOff[p.u+1]++
	}
	for v := 0; v < n; v++ {
		ra.relOff[v+1] += ra.relOff[v]
		ra.ntfOff[v+1] += ra.ntfOff[v]
	}
	relFill := append([]int32(nil), ra.relOff[:n]...)
	ntfFill := append([]int32(nil), ra.ntfOff[:n]...)
	// pairs are sorted by (v, u), so both fills emit sorted rows.
	for _, p := range pairs {
		ra.relNbr[relFill[p.v]] = p.u
		ra.relW[relFill[p.v]] = p.w
		relFill[p.v]++
		ra.ntf[ntfFill[p.u]] = p.v
		ntfFill[p.u]++
	}
	return ra
}

// The relaxation structure depends only on (graph, mode) and is rebuilt for
// every SSSP otherwise — Step 1 alone runs n of them on the same graph — so
// a small cache keyed by graph identity pays for itself immediately. The
// graph's mutation counter is part of the key: any API-level mutation —
// AddEdge, SetEdgeWeight, RemoveEdge (the session update path mutates
// weights in place) — bumps it, so a stale entry can never be confused
// with the current topology or weights. Note the pointer keys pin the
// cached graphs (and their CSR arenas) until eviction; the cache is kept
// small so a process churning through many transient graphs retains at
// most a handful of them.
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

func getRelAdj(g *graph.Graph, mode Mode) *relAdj {
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
	ra = buildRelAdj(g, mode)
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
// vectors every run refills, the per-arc confirmation-wave labels, and the
// two protocol objects. Pooling it takes a warm-network SSSP re-run to zero
// allocations — the pipeline executes thousands of them per Network.
type runState struct {
	res       Result
	confirmed []bool     // pooled Confirmed backing (nil in label-only runs)
	nbrLabel  [][2]int64 // per-arc neighbor labels, aligned with ra.relNbr
	haveLabel []bool
	start     []int32 // round-0 set: the seeds, then the reached nodes
	main      mainProto
	wave      waveProto
}

func (rs *runState) ensure(n, arcs int) {
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
	if len(rs.nbrLabel) < arcs {
		rs.nbrLabel = make([][2]int64, arcs)
		rs.haveLabel = make([]bool, arcs)
	}
	rs.nbrLabel = rs.nbrLabel[:arcs]
	rs.haveLabel = rs.haveLabel[:arcs]
}

// Run computes the h-hop SSSP rooted at root, consuming exactly hops rounds
// on nw (the fixed schedule of Lemma A.4).
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
	ra := getRelAdj(g, mode)
	n := g.N
	rs := congest.ScratchState(nw.Scratch(), stateKey{}, func() *runState { return new(runState) })
	rs.ensure(n, len(ra.relNbr))
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
	// Neighbor labels are stored per relaxation arc in a flat arena aligned
	// with ra.relNbr (the sender of a kindFinal/kindConfirm message always
	// has an arc into the receiver: that is exactly who notify() reaches).
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
	for _, m := range in {
		if m.Kind != kindLabel {
			continue
		}
		w := ra.weight(v, m.From)
		if w < 0 {
			continue // label from a neighbor with no relaxation arc to v
		}
		nd, nh := m.A+w, int(m.B)+1
		if better(nd, nh, m.From, res.Dist[v], res.Hops[v], res.Parent[v]) {
			res.Dist[v], res.Hops[v], res.Parent[v] = nd, nh, m.From
			improved = true
		}
	}
	if improved && round < p.hops {
		for _, u := range ra.notify(v) {
			send(congest.Message{To: int(u), Kind: kindLabel, A: res.Dist[v], B: int64(res.Hops[v])})
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
	for _, m := range in {
		switch m.Kind {
		case kindFinal:
			if ai := ra.arcIndex(v, m.From); ai >= 0 {
				rs.nbrLabel[ai] = [2]int64{m.A, m.B}
				rs.haveLabel[ai] = true
			}
		case kindConfirm:
			if res.Hops[v] == round-1 {
				ai := ra.arcIndex(v, m.From)
				if ai < 0 || !rs.haveLabel[ai] {
					continue
				}
				lbl, w := rs.nbrLabel[ai], ra.relW[ai]
				if lbl[0]+w == res.Dist[v] && int(lbl[1])+1 == res.Hops[v] {
					if !res.Confirmed[v] || m.From < res.Parent[v] {
						res.Confirmed[v] = true
						res.Parent[v] = m.From
					}
				}
			}
		}
	}
	// Messages within one round arrive together, so re-scan for the
	// smallest-id confirming sender (the loop above may have set a
	// larger id first); handled by the m.From < Parent check.
	switch {
	case round == 0:
		if res.Hops[v] >= 0 {
			for _, u := range ra.notify(v) {
				send(congest.Message{To: int(u), Kind: kindFinal, A: res.Dist[v], B: int64(res.Hops[v])})
			}
		}
	case round == 1 && res.Hops[v] == 0:
		res.Confirmed[v] = true
		res.Parent[v] = -1
		for _, u := range ra.notify(v) {
			send(congest.Message{To: int(u), Kind: kindConfirm})
		}
	case round >= 2 && res.Confirmed[v] && res.Hops[v] == round-1:
		for _, u := range ra.notify(v) {
			send(congest.Message{To: int(u), Kind: kindConfirm})
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
