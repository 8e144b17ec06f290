package core

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// This file is step 8, the last-edge resolution (an implementation
// addition to Algorithm 1). Node u streams its distance column delta(., u)
// to every neighbor, source x in round x. A node t settles its predecessor
// for source x either on hearing column x, through an in-neighbor whose
// distance composes over a positive-weight arc (strict decrease can never
// cycle), or later, on a settle notice from an equal-distance in-neighbor
// over a zero-weight arc, which keeps the predecessor graph acyclic across
// zero-weight plateaus. Settled sources queue up and are announced to
// every neighbor, one per round. The exchange runs on the host round by
// round with the transition of the engine protocol in reference.go, and
// is charged through congest.ChargeSchedule (DESIGN.md §3): Stats,
// WordsByNode, the OnRound stream, cancellation and fault rules are those
// of the simulated run. In -tags matcheck builds every resolution also
// runs that protocol on a clone and fails on any difference
// (congest.Charged).

// lastEdgeKey keys step 8's pooled state in the network's scratch registry.
type lastEdgeKey struct{}

// lastEdgeState is a network's pooled step-8 state: the arcs, laid out
// for one (graph, version), and the schedule with its settle state.
type lastEdgeState struct {
	g       *graph.Graph
	version uint64
	adj     lastEdgeAdj
	sched   lastEdgeSched
}

// lastEdgeAdj holds the arcs of the graph along the network's links,
// parallel edges collapsed to their minimum weight. Node t's link slots
// are off[t] to off[t+1], so deg(t) = off[t+1] - off[t], and w at slot
// off[t]+i is the weight of the arc Neighbors(t)[i] -> t, or graph.Inf
// when the link carries none, as the reference's wmin. Zero row u lists,
// in id order, the neighbors t with an arc u->t of weight 0: the only
// receivers a settle notice of u can settle (see lastEdgeSched).
type lastEdgeAdj struct {
	off, zeroOff, zeroTo []int32
	w                    []int64
}

// build lays out the arcs of g over nw's links.
func (a *lastEdgeAdj) build(nw *congest.Network, g *graph.Graph) {
	n := g.N
	a.off = congest.Grow(a.off, n+1)
	for t := 0; t < n; t++ {
		a.off[t+1] = a.off[t] + int32(nw.Degree(t))
	}
	a.w = congest.Grow(a.w, int(a.off[n]))
	for i := range a.w {
		a.w[i] = graph.Inf
	}
	arc := func(u, t int, wt int64) {
		if i := nw.LinkIndex(t, u); i >= 0 && wt < a.w[int(a.off[t])+i] {
			a.w[int(a.off[t])+i] = wt
		}
	}
	for _, e := range g.Edges() {
		arc(e.U, e.V, e.W)
		if !g.Directed {
			arc(e.V, e.U, e.W)
		}
	}
	a.zeroOff = congest.Grow(a.zeroOff, n+1)
	a.zeroTo = congest.Grow(a.zeroTo, len(a.w))[:0]
	for u := 0; u < n; u++ {
		for _, t := range nw.Neighbors(u) {
			if a.w[int(a.off[t])+nw.LinkIndex(t, u)] == 0 {
				a.zeroTo = append(a.zeroTo, int32(t))
			}
		}
		a.zeroOff[u+1] = int32(len(a.zeroTo))
	}
}

// ResolveLastEdges runs step 8 on nw over dist, the distance matrix as
// the targets know it (dist[x][t] = delta(x, t), every row present). It
// returns the caller-owned last-hop matrix: LastHop[x][t] is the
// smallest-id in-neighbor of t through which t settled source x, -1 for
// t == x and unreachable pairs. The run takes O(n) rounds; one that has
// not ended within 8n+64 rounds fails, as the engine fails a protocol
// that does not terminate within its budget.
func ResolveLastEdges(nw *congest.Network, dist [][]int64) ([][]int, error) {
	return resolveLastEdges(nw, dist, 8*nw.G.N+64)
}

// resolveLastEdges is ResolveLastEdges within a round budget.
func resolveLastEdges(nw *congest.Network, dist [][]int64, budget int) ([][]int, error) {
	g := nw.G
	st := congest.ScratchState(nw.Scratch(), lastEdgeKey{}, func() *lastEdgeState { return new(lastEdgeState) })
	if st.g != g || st.version != g.Version() {
		st.adj.build(nw, g)
		st.g, st.version = g, g.Version()
	}
	lh := mat.NewIntFilled(g.N, g.N, -1).RowViews()
	err := nw.Charged("lastedge", func() error {
		return st.sched.run(nw, &st.adj, dist, lh, budget)
	}, func(c *congest.Network) error {
		return checkLastEdges(c, dist, budget, lh)
	})
	if err != nil {
		return nil, err
	}
	return lh, nil
}

// notice is a settle notice: node from announces that it settled source x.
type notice struct{ from, x int32 }

// lastEdgeSched is the settle wave executed on the host, with the
// transition of lastEdgesRef. Round r first applies the notices sent in
// round r-1 in ascending sender order: t settles x through sender u when t
// has not settled x, u->t is an arc and delta(x, u) + w(u, t) =
// delta(x, t) < Inf, so the first composing announcer settles it. Then,
// for x = r-1 < n, the nodes that heard column x (those with a neighbor u
// with delta(x, u) < Inf) apply the strict-decrease rule: x settles itself
// with no predecessor, and t != x with delta(x, t) < Inf settles through
// the smallest-id in-neighbor whose positive-weight arc composes. Last,
// every node t sends column r (r < n, delta(r, t) < Inf) and then, if the
// bandwidth is left, the next source of its queue, each to all deg(t)
// neighbors at one word a message. Every node is live through round n-1
// and while its queue holds a source, so round r+1 takes place if some
// node is live or round r delivered.
//
// The reference keeps the column values it receives in a per-link table;
// the host reads delta(x, u) from dist instead. Column x arrives in round
// x+1, exactly when delta(x, u) < Inf, and neither rule reads it earlier:
// the strict-decrease rule runs in round x+1, and a notice for x was sent
// in round x+1 at the earliest, once its sender settled x. The same timing
// means a notice settles only over a zero-weight arc: if u->t has positive
// weight and composes, t heard column x from u in round x+1 and settled x
// then, before any notice for x reached it. So only senders with a zero
// row have their notices applied; the others are only counted.
type lastEdgeSched struct {
	nw      *congest.Network
	adj     *lastEdgeAdj
	dist    [][]int64
	lh      [][]int
	budget  int
	overrun bool    // the run was still live after round budget-1
	settled []bool  // settled[x*n+t]: t has settled its predecessor for x
	queue   []int32 // queue[t*n:][:qlen[t]]: the sources t settled, in order
	qlen    []int32
	head    []int32  // queue[t*n+head[t]]: the next source t announces
	sent    []notice // last round's notices from senders with a zero row
	next    []notice // this round's
}

// run executes the wave into lh and charges it as Run(p, budget) charges
// the reference: until no node is live and no message is in flight, or
// with the engine's error when the budget runs out first.
func (s *lastEdgeSched) run(nw *congest.Network, adj *lastEdgeAdj, dist [][]int64, lh [][]int, budget int) error {
	n := nw.G.N
	s.nw, s.adj, s.dist, s.lh, s.budget, s.overrun = nw, adj, dist, lh, budget, false
	s.settled = congest.Grow(s.settled, n*n)
	s.qlen = congest.Grow(s.qlen, n)
	s.head = congest.Grow(s.head, n)
	if cap(s.queue) < n*n {
		s.queue = make([]int32, n*n)
	}
	s.queue = s.queue[:n*n]
	s.sent = congest.Grow(s.sent, n)[:0] // a round's notices: one per sender at most
	s.next = congest.Grow(s.next, n)[:0]
	if n == 0 {
		return nil // the engine simulates no round without a node
	}
	_, err := nw.ChargeSchedule(s)
	s.dist, s.lh = nil, nil // caller-owned: the pool must not pin them
	if err != nil {
		return err
	}
	if s.overrun {
		return fmt.Errorf("congest: protocol did not terminate within %d rounds", budget)
	}
	return nil
}

// settle records t's predecessor for x (-1 when t == x) and queues x for
// announcement.
func (s *lastEdgeSched) settle(x, t int, pred int32) {
	n := len(s.dist)
	s.settled[x*n+t] = true
	s.lh[x][t] = int(pred)
	s.queue[t*n+int(s.qlen[t])] = int32(x)
	s.qlen[t]++
}

// Round implements congest.Schedule.
func (s *lastEdgeSched) Round(r int) (int64, bool) {
	adj, dist := s.adj, s.dist
	n := len(dist)
	for _, nt := range s.sent {
		x := int(nt.x)
		row := dist[x]
		du := row[nt.from]
		for _, t := range adj.zeroTo[adj.zeroOff[nt.from]:adj.zeroOff[nt.from+1]] {
			if row[t] == du && du < graph.Inf && !s.settled[x*n+int(t)] {
				s.settle(x, int(t), nt.from)
			}
		}
	}
	if x := r - 1; x >= 0 && x < n {
		row := dist[x]
		for _, u := range s.nw.Neighbors(x) {
			if row[u] < graph.Inf {
				s.settle(x, x, -1) // x heard its own column
				break
			}
		}
		for t, dxt := range row {
			if t == x || dxt >= graph.Inf {
				continue
			}
			// Distances and weights are non-negative, so an infinite one
			// never composes to dxt < Inf.
			w := adj.w[adj.off[t]:adj.off[t+1]]
			for i, u := range s.nw.Neighbors(t) {
				if w[i] > 0 && row[u]+w[i] == dxt {
					s.settle(x, t, int32(u))
					break
				}
			}
		}
	}
	var col []int64 // the column round r sends
	if r < n {
		col = dist[r]
	}
	words, bw := s.nw.Stats.WordsByNode, s.nw.Bandwidth
	head, qlen, queue := s.head, s.qlen, s.queue
	var delivered int64
	live := r < n
	s.next = s.next[:0]
	for t := range head {
		deg := int64(adj.off[t+1] - adj.off[t])
		budget := bw
		if col != nil && col[t] < graph.Inf {
			delivered += deg
			words[t] += deg
			budget--
		}
		if head[t] == qlen[t] {
			continue
		}
		if budget > 0 {
			if adj.zeroOff[t] < adj.zeroOff[t+1] {
				s.next = append(s.next, notice{int32(t), queue[t*n+int(head[t])]})
			}
			head[t]++
			delivered += deg
			words[t] += deg
		}
		live = live || head[t] < qlen[t]
	}
	s.sent, s.next = s.next, s.sent
	more := live || delivered > 0
	if more && r+1 == s.budget {
		s.overrun = true
		return delivered, false
	}
	return delivered, more
}
