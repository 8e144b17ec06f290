package graph

import "math/rand"

// Generators for the workload families used by the tests and the benchmark
// harness. All generators are deterministic given the seed and always return
// graphs whose underlying undirected communication network is connected
// (CONGEST requires connectivity). A graph of at most one node has no
// edges: its only candidate edge would be a self-loop.

// GenConfig controls random generation.
type GenConfig struct {
	N         int
	Directed  bool
	Seed      int64
	MaxWeight int64 // weights are drawn uniformly from [0, MaxWeight]
}

func (c GenConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c GenConfig) weight(r *rand.Rand) int64 {
	if c.MaxWeight <= 0 {
		return 1
	}
	return r.Int63n(c.MaxWeight + 1)
}

// RandomConnected generates a random graph with roughly m edges. It first
// builds a random spanning backbone (guaranteeing connectivity of the
// underlying undirected graph), then adds random extra edges. For directed
// graphs the backbone edges are added in both directions so that every
// vertex is reachable from every other, which keeps APSP outputs dense and
// interesting.
func RandomConnected(c GenConfig, m int) *Graph {
	r := c.rng()
	g := New(c.N, c.Directed)
	perm := r.Perm(c.N)
	for i := 1; i < c.N; i++ {
		u := perm[r.Intn(i)]
		v := perm[i]
		g.MustAddEdge(u, v, c.weight(r))
		if c.Directed {
			g.MustAddEdge(v, u, c.weight(r))
		}
	}
	for c.N > 1 && g.M() < m {
		u := r.Intn(c.N)
		v := r.Intn(c.N)
		if u == v {
			continue
		}
		g.MustAddEdge(u, v, c.weight(r))
	}
	return g
}

// Ring generates a cycle 0-1-...-n-1-0; the diameter-n/2 workload that
// stresses hop bounds. Directed rings get edges in both directions around
// the cycle to preserve strong connectivity.
func Ring(c GenConfig) *Graph {
	r := c.rng()
	g := New(c.N, c.Directed)
	for i := 0; c.N > 1 && i < c.N; i++ {
		j := (i + 1) % c.N
		g.MustAddEdge(i, j, c.weight(r))
		if c.Directed {
			g.MustAddEdge(j, i, c.weight(r))
		}
	}
	return g
}

// Grid generates a rows x cols grid graph (n = rows*cols vertices). Grids
// model the road-network-style workloads that motivate distributed APSP.
func Grid(rows, cols int, c GenConfig) *Graph {
	r := c.rng()
	n := rows * cols
	g := New(n, c.Directed)
	id := func(i, j int) int { return i*cols + j }
	add := func(u, v int) {
		g.MustAddEdge(u, v, c.weight(r))
		if c.Directed {
			g.MustAddEdge(v, u, c.weight(r))
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				add(id(i, j), id(i, j+1))
			}
			if i+1 < rows {
				add(id(i, j), id(i+1, j))
			}
		}
	}
	return g
}

// Layered generates a graph of L layers with width w (n = L*w), dense
// forward edges between consecutive layers, and a single spine connecting
// layer entry points. Long layered graphs maximize the number of full-length
// h-hop paths and therefore stress the blocker-set and pipelining machinery.
func Layered(layers, width int, c GenConfig) *Graph {
	r := c.rng()
	n := layers * width
	g := New(n, c.Directed)
	id := func(l, k int) int { return l*width + k }
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				g.MustAddEdge(id(l, a), id(l+1, b), c.weight(r))
			}
		}
	}
	// Spine keeps the underlying undirected graph connected and, for
	// directed graphs, provides a route back toward earlier layers.
	for l := 0; l+1 < layers; l++ {
		g.MustAddEdge(id(l+1, 0), id(l, 0), c.weight(r))
	}
	for k := 0; k+1 < width; k++ {
		g.MustAddEdge(id(0, k+1), id(0, k), c.weight(r))
		if c.Directed {
			g.MustAddEdge(id(0, k), id(0, k+1), c.weight(r))
		}
	}
	return g
}

// Star generates a hub-and-spoke graph: vertex 0 connected to all others.
// Stars maximize congestion at the hub, exercising the bottleneck-node
// machinery of Algorithm 9.
func Star(c GenConfig) *Graph {
	r := c.rng()
	g := New(c.N, c.Directed)
	for i := 1; i < c.N; i++ {
		g.MustAddEdge(0, i, c.weight(r))
		if c.Directed {
			g.MustAddEdge(i, 0, c.weight(r))
		}
	}
	return g
}

// DisjointPaths generates k vertex-disjoint directed-agnostic paths of
// pathLen edges each, their tails linked into a cycle by heavy connector
// edges (weight connectorW) to keep the communication graph connected (a
// single path needs none).
// With light path weights and heavy connectors, shortest-path trees are
// dominated by the k disjoint paths, so no single vertex covers more than
// ~1/k of the full-length tree paths — the regime in which Algorithm 2
// must take its good-set branch rather than the single-node branch.
func DisjointPaths(k, pathLen int, connectorW int64, c GenConfig) *Graph {
	r := c.rng()
	n := k * (pathLen + 1)
	g := New(n, c.Directed)
	id := func(p, j int) int { return p*(pathLen+1) + j }
	for p := 0; p < k; p++ {
		for j := 0; j < pathLen; j++ {
			w := c.weight(r)
			g.MustAddEdge(id(p, j), id(p, j+1), w)
			if c.Directed {
				g.MustAddEdge(id(p, j+1), id(p, j), w)
			}
		}
	}
	for p := 0; k > 1 && p < k; p++ {
		u, v := id(p, 0), id((p+1)%k, 0)
		g.MustAddEdge(u, v, connectorW)
		if c.Directed {
			g.MustAddEdge(v, u, connectorW)
		}
	}
	return g
}

// ZeroWeightMix generates a connected random graph in which roughly half
// the edges have weight zero. Zero-weight edges are explicitly supported by
// the paper and are a classic source of tie-breaking bugs.
func ZeroWeightMix(c GenConfig, m int) *Graph {
	g := RandomConnected(c, m)
	r := rand.New(rand.NewSource(c.Seed + 1))
	for i := range g.edges {
		if r.Intn(2) == 0 {
			g.edges[i].W = 0
		}
	}
	return g
}
