package graph

import (
	"container/heap"

	"congestapsp/internal/mat"
)

// This file contains the sequential reference ("oracle") shortest-path
// algorithms against which the distributed algorithms are validated.

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist int64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Dijkstra returns the shortest-path distances from src to every vertex.
// Unreachable vertices get Inf.
func Dijkstra(g *Graph, src int) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		g.OutNeighbors(it.v, func(w int, wt int64) {
			if nd := it.dist + wt; nd < dist[w] {
				dist[w] = nd
				heap.Push(h, pqItem{w, nd})
			}
		})
	}
	return dist
}

// BellmanFordHops returns, for each vertex v, the minimum weight of a path
// from src to v using at most h edges (Inf if none). This is the sequential
// reference for the distributed h-hop SSSP.
func BellmanFordHops(g *Graph, src, h int) []int64 {
	cur := make([]int64, g.N)
	for i := range cur {
		cur[i] = Inf
	}
	cur[src] = 0
	next := make([]int64, g.N)
	for r := 0; r < h; r++ {
		copy(next, cur)
		changed := false
		for _, e := range g.edges {
			relax := func(u, v int, w int64) {
				if cur[u] < Inf && cur[u]+w < next[v] {
					next[v] = cur[u] + w
					changed = true
				}
			}
			relax(e.U, e.V, e.W)
			if !g.Directed {
				relax(e.V, e.U, e.W)
			}
		}
		cur, next = next, cur
		if !changed {
			break
		}
	}
	return cur
}

// FloydWarshall returns the full n x n distance matrix as row views of one
// flat row-major matrix; D[u][v] is the shortest-path distance from u to v
// (Inf if unreachable, 0 on the diagonal).
func FloydWarshall(g *Graph) [][]int64 {
	n := g.N
	m := mat.NewFilled(n, n, Inf)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
	}
	for _, e := range g.edges {
		if e.W < m.At(e.U, e.V) {
			m.Set(e.U, e.V, e.W)
		}
		if !g.Directed && e.W < m.At(e.V, e.U) {
			m.Set(e.V, e.U, e.W)
		}
	}
	for k := 0; k < n; k++ {
		dk := m.Row(k)
		for i := 0; i < n; i++ {
			dik := m.At(i, k)
			if dik >= Inf {
				continue
			}
			di := m.Row(i)
			for j := 0; j < n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return m.RowViews()
}

// HopsOnShortestPath returns, for each vertex v, the minimum number of edges
// over all shortest (minimum-weight) paths from src to v, or -1 if v is
// unreachable. It is the sequential reference for hops(x, c) used by the
// reversed q-sink case split (Section 4 of the paper).
func HopsOnShortestPath(g *Graph, src int) []int {
	dist := Dijkstra(g, src)
	n := g.N
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	// Bellman-Ford style relaxation on the shortest-path DAG: at most n-1
	// sweeps, each sweep settles at least the next hop level.
	for r := 0; r < n; r++ {
		changed := false
		for _, e := range g.edges {
			step := func(u, v int, w int64) {
				if dist[u] < Inf && hops[u] >= 0 && dist[u]+w == dist[v] {
					if hops[v] == -1 || hops[u]+1 < hops[v] {
						hops[v] = hops[u] + 1
						changed = true
					}
				}
			}
			step(e.U, e.V, e.W)
			if !g.Directed {
				step(e.V, e.U, e.W)
			}
		}
		if !changed {
			break
		}
	}
	return hops
}

// ReachableFrom returns the set of vertices reachable from src following
// edge directions (all incident edges if undirected) as a boolean slice.
func ReachableFrom(g *Graph, src int) []bool {
	seen := make([]bool, g.N)
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.OutNeighbors(u, func(v int, _ int64) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		})
	}
	return seen
}

// IsConnectedUG reports whether the underlying undirected graph is
// connected. CONGEST algorithms assume a connected communication network.
func IsConnectedUG(g *Graph) bool {
	if g.N == 0 {
		return true
	}
	u := g.UnderlyingUndirected()
	seen := ReachableFrom(u, 0)
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// BlockerDelta builds the exact Step-5 input of the q-sink machinery:
// element (x, ci) = dist(x, Q[ci]) in g, computed as dist(Q[ci], x) in the
// reversed graph. It is the shared oracle of the qsink tests, benchmarks,
// and the q-sink tables of `cmd/experiment -lemmas`.
func BlockerDelta(g *Graph, Q []int) *mat.Matrix {
	rev := g
	if g.Directed {
		rev = g.Reverse()
	}
	delta := mat.New(g.N, len(Q))
	for ci, c := range Q {
		d := Dijkstra(rev, c)
		for x := 0; x < g.N; x++ {
			delta.Set(x, ci, d[x])
		}
	}
	return delta
}
