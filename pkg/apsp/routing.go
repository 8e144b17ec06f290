package apsp

import (
	"congestapsp/internal/congest"
	"congestapsp/internal/unweighted"
)

// RoutingResult extends the APSP output with forwarding tables: NextHop
// gives, at every node x, the first hop of a shortest path toward every
// target — the classic routing-table use of distributed APSP.
//
// Distributed semantics: NextHop[x][t] is knowledge held at node x (it is
// obtained from the last-edge resolution of a run on the reversed graph,
// where "predecessor of x on the shortest t->x path" is exactly the
// successor of x on the shortest x->t path, and is resolved at x).
type RoutingResult struct {
	// Dist[x][t] is the exact shortest-path distance (Inf if unreachable).
	Dist [][]int64
	// NextHop[x][t] is x's forwarding neighbor toward t (-1 on the
	// diagonal and for unreachable pairs).
	NextHop [][]int
	// Stats aggregates both underlying runs (forward + reverse).
	Stats Stats
}

// RunWithRouting computes APSP plus per-node forwarding tables. It runs the
// selected algorithm twice — once on g and once on the reversed graph —
// so it costs about twice the rounds of Run.
func RunWithRouting(g *Graph, opt Options) (*RoutingResult, error) {
	fwd, err := Run(g, opt)
	if err != nil {
		return nil, err
	}
	revOpts := opt
	revOpts.SkipLastHops = false // the reverse run's last hops ARE the next hops
	rg := &Graph{g: g.g.Reverse()}
	rev, err := Run(rg, revOpts)
	if err != nil {
		return nil, err
	}
	n := g.N()
	next := make([][]int, n)
	for x := 0; x < n; x++ {
		next[x] = make([]int, n)
		for t := 0; t < n; t++ {
			next[x][t] = rev.LastHop[t][x]
		}
	}
	st := fwd.Stats
	st.Rounds += rev.Stats.Rounds
	st.Messages += rev.Stats.Messages
	st.Words += rev.Stats.Words
	return &RoutingResult{Dist: fwd.Dist, NextHop: next, Stats: st}, nil
}

// Route walks the forwarding tables from x to t and returns the node
// sequence (nil if unreachable).
func (r *RoutingResult) Route(x, t int) []int {
	if r.Dist[x][t] >= Inf {
		return nil
	}
	path := []int{x}
	for cur := x; cur != t; {
		nxt := r.NextHop[cur][t]
		if nxt < 0 || len(path) > len(r.Dist) {
			return nil // defensive: broken table
		}
		path = append(path, nxt)
		cur = nxt
	}
	return path
}

// HopResult is the output of the unweighted (hop-count) APSP baseline.
type HopResult struct {
	// Hops[src][v] is the minimum edge count of a src->v path (Inf if
	// unreachable).
	Hops   [][]int64
	Rounds int
}

// RunUnweighted computes hop-count APSP with the classic O(n)-round
// pipelined-BFS algorithm (Holzer-Wattenhofer), the unweighted regime whose
// Omega(n) lower bound Table 1 of the paper cites. Weights on g are
// ignored.
func RunUnweighted(g *Graph) (*HopResult, error) {
	nw, err := congest.NewNetwork(g.g, 1)
	if err != nil {
		return nil, err
	}
	res, err := unweighted.Run(nw, g.g)
	if err != nil {
		return nil, err
	}
	return &HopResult{Hops: res.Dist, Rounds: res.Rounds}, nil
}
