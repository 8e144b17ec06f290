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
//
// A run is the relaxation schedule and, for the tree-building entry points,
// the confirmation wave. Both are executed on the host, round by round,
// with the per-node transition of the engine protocols they replace
// (reference.go): each round's senders push their labels along their
// notify rows, and the round is charged through congest.ChargeSchedule, so
// Stats, WordsByNode, the OnRound stream, cancellation and fault rules are
// those of the simulated run (DESIGN.md §3). In -tags matcheck builds every
// run also executes the engine protocols on a clone and fails on any
// difference (congest.Charged).
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
// links to the nodes that must hear about u's label changes; the push rows
// pushTo and pushW, aligned with ntf, hold the receiver at the other end
// of each and the weight of its arc from u, which is what the host
// execution relaxes. Parallel edges are collapsed to their minimum weight:
// a node learns a neighbor's label once per round and applies its locally
// known minimum incident edge weight.
type relAdj struct {
	off    []int32
	w      []int64
	ntfOff []int32
	ntf    []int32
	pushTo []int32
	pushW  []int64
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
	ra.pushTo = make([]int32, 0, len(ra.w))
	ra.pushW = make([]int64, 0, len(ra.w))
	for u := 0; u < n; u++ {
		for i, v := range nw.Neighbors(u) {
			if w := ra.w[int(ra.off[v])+nw.LinkIndex(v, u)]; w >= 0 {
				ra.ntf = append(ra.ntf, int32(i))
				ra.pushTo = append(ra.pushTo, int32(v))
				ra.pushW = append(ra.pushW, w)
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

// runState is the reusable per-network state of a run: the Result whose
// vectors every run refills, the two host schedules, and the state of the
// reference protocols (reference.go), sized only where they run. Pooling
// it takes a warm-network SSSP re-run to zero allocations — the pipeline
// executes thousands of them per Network.
type runState struct {
	res       Result
	confirmed []bool // pooled Confirmed backing (nil in label-only runs)
	relax     relaxSched
	wave      waveSched
	ref       refState
}

func (rs *runState) ensure(n int) {
	if len(rs.res.Dist) < n {
		rs.res.Dist = make([]int64, n)
		rs.res.Hops = make([]int, n)
		rs.res.Parent = make([]int, n)
		rs.confirmed = make([]bool, n)
		rs.relax.queued = make([]bool, n)
	}
	rs.res.Dist = rs.res.Dist[:n]
	rs.res.Hops = rs.res.Hops[:n]
	rs.res.Parent = rs.res.Parent[:n]
	rs.confirmed = rs.confirmed[:n]
	rs.relax.queued = rs.relax.queued[:n]
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

// prepare validates a run's arguments and returns nw's pooled run state
// with the result labels set from init: a seed (init < Inf) at hop 0,
// every other node unreached, no parents.
func prepare(nw *congest.Network, g *graph.Graph, init []int64, mode Mode) (*runState, *relAdj, error) {
	if len(init) != g.N {
		return nil, nil, fmt.Errorf("bford: init length %d != n %d", len(init), g.N)
	}
	if g != nw.G {
		return nil, nil, fmt.Errorf("bford: graph is not the network's input graph")
	}
	ra := getRelAdj(nw, g, mode)
	rs := congest.ScratchState(nw.Scratch(), stateKey{}, func() *runState { return new(runState) })
	rs.ensure(g.N)
	res := &rs.res
	res.Root = -1
	res.Mode = mode
	res.Confirmed = nil
	for v, d := range init {
		res.Dist[v] = d
		res.Parent[v] = -1
		if d < graph.Inf {
			res.Hops[v] = 0
		} else {
			res.Hops[v] = -1
		}
	}
	return rs, ra, nil
}

func runBF(nw *congest.Network, g *graph.Graph, init []int64, hops int, mode Mode, confirm bool) (*Result, error) {
	rs, ra, err := prepare(nw, g, init, mode)
	if err != nil {
		return nil, err
	}
	// The schedule takes hops+1 rounds: seeds send at round 0, labels at hop
	// distance r settle at round r, and the final round only receives.
	err = nw.Charged("bford-relax", func() error {
		return rs.relax.run(nw, &rs.res, ra, hops)
	}, func(c *congest.Network) error {
		return checkRelax(c, init, hops, mode, &rs.res)
	})
	if err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP: %w", mode, err)
	}
	if !confirm {
		return &rs.res, nil
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
	rs.res.Confirmed = rs.confirmed
	clear(rs.res.Confirmed)
	err = nw.Charged("bford-wave", func() error {
		return rs.wave.run(nw, &rs.res, ra, hops)
	}, func(c *congest.Network) error {
		return checkWave(c, ra, hops, &rs.res)
	})
	if err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP confirmation wave: %w", mode, err)
	}
	return &rs.res, nil
}

// label is a sender's (dist, hops) label as it sends it.
type label struct {
	dist int64
	hops int
}

// relaxSched is the relaxation schedule executed on the host, with the
// transition of mainProto: round r's senders are the seeds for r = 0 and
// otherwise the nodes whose label improved while relaxing round r-1's
// sends. Each sender pushes its end-of-round label along its notify row
// and each receiver keeps the better label (better is a total order, so
// the order of the pushes does not matter). Nothing is sent in rounds >=
// hops, and round r+1 takes place only if round r delivered.
type relaxSched struct {
	nw     *congest.Network
	res    *Result
	ra     *relAdj
	hops   int
	front  []int32 // this round's senders
	next   []int32 // the nodes improved so far this round: next round's senders
	sent   []label // the senders' labels, taken before any receiver relaxes
	queued []bool  // v is in next
}

// run executes the schedule from the seeds of res and charges it: the
// rounds it simulates through ChargeSchedule, then the rest of the hops+1
// budget without OnRound, as RunFrom(p, seeds, hops+1, true) charges. With
// no seed no round is simulated.
func (s *relaxSched) run(nw *congest.Network, res *Result, ra *relAdj, hops int) error {
	s.nw, s.res, s.ra, s.hops = nw, res, ra, hops
	s.front = s.front[:0]
	for v, h := range res.Hops {
		if h == 0 {
			s.front = append(s.front, int32(v))
		}
	}
	return charge(nw, s, len(s.front) > 0, hops+1)
}

// charge charges a run of schedule s over a fixed budget as RunFrom(p,
// start, budget, true) charges it: the rounds the schedule simulates
// through ChargeSchedule, then the rest of the budget without OnRound. An
// empty round-0 set (start false) simulates no round.
func charge(nw *congest.Network, s congest.Schedule, start bool, budget int) error {
	done := 0
	if start {
		var err error
		if done, err = nw.ChargeSchedule(s); err != nil {
			return err
		}
	}
	nw.ChargeRounds(budget - done)
	return nil
}

// Round implements congest.Schedule.
func (s *relaxSched) Round(r int) (int64, bool) {
	if r >= s.hops || len(s.front) == 0 {
		return 0, false
	}
	res, ra, words := s.res, s.ra, s.nw.Stats.WordsByNode
	dist, hops, parent := res.Dist, res.Hops, res.Parent
	s.sent = s.sent[:0]
	for _, u := range s.front {
		s.sent = append(s.sent, label{dist[u], hops[u]})
	}
	s.next = s.next[:0]
	var delivered int64
	for i, u := range s.front {
		lo, hi := ra.ntfOff[u], ra.ntfOff[u+1]
		delivered += int64(hi - lo)
		words[u] += int64(hi - lo)
		d, h, p := s.sent[i].dist, s.sent[i].hops+1, int(u)
		for k := lo; k < hi; k++ {
			v := ra.pushTo[k]
			if nd := d + ra.pushW[k]; better(nd, h, p, dist[v], hops[v], parent[v]) {
				dist[v], hops[v], parent[v] = nd, h, p
				if !s.queued[v] {
					s.queued[v] = true
					s.next = append(s.next, v)
				}
			}
		}
	}
	for _, v := range s.next {
		s.queued[v] = false
	}
	s.front, s.next = s.next, s.front
	return delivered, delivered > 0
}

// waveSched is the confirmation wave executed on the host, with the
// transition of waveProto. Round 0: every reached node announces its final
// label. Round 1: the seeds confirm (parent -1) and send. Round k >= 2: the
// nodes confirmed in round k send; a node at hop level k-1 confirmed in
// round k through the smallest-id round-(k-1) sender whose label composes
// with its own. Sends in round hops+1, the last of the hops+2 budget, are
// dropped: not delivered and not charged. The seeds stay live through
// round 1, so round 0 is followed by round 1 while a seed exists.
type waveSched struct {
	nw    *congest.Network
	res   *Result
	ra    *relAdj
	drop  int     // the final budget round, whose sends are dropped
	front []int32 // this round's senders
	next  []int32 // the nodes the round confirms: next round's senders
}

// run executes the wave over the final labels of res and charges it as
// relaxSched.run charges the relaxation, over a hops+2 budget. It leaves
// Confirmed set and, for an unconfirmed non-seed, Parent at -1.
func (s *waveSched) run(nw *congest.Network, res *Result, ra *relAdj, hops int) error {
	s.nw, s.res, s.ra, s.drop = nw, res, ra, hops+1
	s.front = s.front[:0]
	for v, h := range res.Hops {
		if h >= 0 {
			s.front = append(s.front, int32(v))
		}
	}
	if err := charge(nw, s, len(s.front) > 0, hops+2); err != nil {
		return err
	}
	unconfirm(res)
	return nil
}

// unconfirm clears the parent of every reached non-seed the wave left
// unconfirmed: its label does not compose into the tree.
func unconfirm(res *Result) {
	for v, ok := range res.Confirmed {
		if !ok && res.Hops[v] > 0 {
			res.Parent[v] = -1
		}
	}
}

// Round implements congest.Schedule.
func (s *waveSched) Round(r int) (int64, bool) {
	res, ra, words := s.res, s.ra, s.nw.Stats.WordsByNode
	if r == 1 {
		// The seeds confirm. Their parent is -1 already: a node re-parents
		// only when a relaxation moves it off hop level 0.
		for _, u := range s.front {
			res.Confirmed[u] = true
		}
	}
	if r == s.drop || len(s.front) == 0 {
		return 0, false
	}
	var delivered int64
	for _, u := range s.front {
		n := int64(ra.ntfOff[u+1] - ra.ntfOff[u])
		delivered += n
		words[u] += n
	}
	s.next = s.next[:0]
	if r == 0 {
		for _, u := range s.front {
			if res.Hops[u] == 0 {
				s.next = append(s.next, u)
			}
		}
		s.front, s.next = s.next, s.front
		return delivered, delivered > 0 || len(s.front) > 0
	}
	dist, hops, parent, confirmed := res.Dist, res.Hops, res.Parent, res.Confirmed
	for _, u := range s.front {
		// u is at hop level r-1, so only the distances need to compose.
		du := dist[u]
		for k := ra.ntfOff[u]; k < ra.ntfOff[u+1]; k++ {
			v := ra.pushTo[k]
			if hops[v] != r || du+ra.pushW[k] != dist[v] {
				continue
			}
			if !confirmed[v] {
				confirmed[v] = true
				parent[v] = int(u)
				s.next = append(s.next, v)
			} else if int(u) < parent[v] {
				parent[v] = int(u)
			}
		}
	}
	s.front, s.next = s.next, s.front
	return delivered, delivered > 0
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
