package graph

import "math"

// Scenario-corpus generator families beyond the original synthetic set:
// heavy-tailed (PowerLaw), geometric/road-like (RandomGeometric), sparse
// high-conductance (Expander), and bounded-treewidth (KTree) graphs. Like
// the generators in gen.go, every family is deterministic in the seed and
// always yields a connected communication network; directed configs add
// each edge in both orientations to preserve strong connectivity.

// PowerLaw generates a Barabási–Albert preferential-attachment graph: an
// initial (attach+1)-clique, then each new vertex attaches `attach` edges
// to existing vertices chosen proportionally to their current degree
// (duplicate targets per new vertex are re-drawn). The degree sequence is
// heavy-tailed — the hub-dominated regime that stresses the
// bottleneck-elimination machinery on realistic topologies.
func PowerLaw(c GenConfig, attach int) *Graph {
	r := c.rng()
	if attach < 1 {
		attach = 1
	}
	seedN := attach + 1
	if seedN > c.N {
		seedN = c.N
	}
	g := New(c.N, c.Directed)
	addBoth := func(u, v int) {
		g.MustAddEdge(u, v, c.weight(r))
		if c.Directed {
			g.MustAddEdge(v, u, c.weight(r))
		}
	}
	// targets holds one entry per edge endpoint, so uniform draws from it
	// are degree-proportional (the classic BA sampling trick).
	var targets []int
	for u := 0; u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			addBoth(u, v)
			targets = append(targets, u, v)
		}
	}
	for v := seedN; v < c.N; v++ {
		picked := make(map[int]bool, attach)
		for len(picked) < attach && len(picked) < v {
			t := targets[r.Intn(len(targets))]
			if t == v || picked[t] {
				continue
			}
			picked[t] = true
		}
		// Attach in ascending target order so edge insertion order (and
		// therefore the serialized graph) is independent of map iteration.
		for t := 0; t < v; t++ {
			if picked[t] {
				addBoth(v, t)
				targets = append(targets, v, t)
			}
		}
	}
	return g
}

// RandomGeometric generates a random geometric graph: n points placed
// uniformly in the unit square, an edge between every pair within the
// given radius, weights proportional to Euclidean distance (road-network
// style). Components beyond the first are stitched to their nearest
// already-connected point, so the result is always connected; radius <= 0
// selects the standard connectivity threshold ~ sqrt(2 ln n / n).
func RandomGeometric(c GenConfig, radius float64) *Graph {
	r := c.rng()
	n := c.N
	if radius <= 0 {
		radius = math.Sqrt(2 * math.Log(float64(n)+2) / float64(n))
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	// Distances are computed with explicit float64 conversions on each
	// product: the Go spec lets compilers fuse a*b+c into an FMA (single
	// rounding) unless intermediate results are explicitly converted, and
	// a fused distance could flip threshold-adjacent edges between
	// architectures — breaking the cross-host regenerability the scenario
	// corpus promises (math.Sqrt itself is IEEE-exact, so it is safe).
	dist := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return math.Sqrt(float64(dx*dx) + float64(dy*dy))
	}
	g := New(n, c.Directed)
	addBoth := func(u, v int, d float64) {
		w := c.geoWeight(d, radius)
		g.MustAddEdge(u, v, w)
		if c.Directed {
			g.MustAddEdge(v, u, w)
		}
	}
	uf := newUnionFind(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := dist(u, v); d <= radius {
				addBoth(u, v, d)
				uf.union(u, v)
			}
		}
	}
	// Stitch stray components: connect each unreached vertex set to its
	// nearest vertex in the component of vertex 0, in ascending id order.
	for v := 1; v < n; v++ {
		if uf.find(v) == uf.find(0) {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if uf.find(u) == uf.find(0) && dist(u, v) < bestD {
				best, bestD = u, dist(u, v)
			}
		}
		addBoth(best, v, bestD)
		uf.union(best, v)
	}
	return g
}

// geoWeight maps a Euclidean distance to an edge weight: distances scale
// linearly into [1, MaxWeight] (unit weights when MaxWeight <= 0), so
// shortest paths follow geometry rather than hop count.
func (c GenConfig) geoWeight(d, radius float64) int64 {
	if c.MaxWeight <= 0 {
		return 1
	}
	w := int64(math.Ceil(d / radius * float64(c.MaxWeight)))
	if w < 1 {
		w = 1
	}
	if w > c.MaxWeight {
		w = c.MaxWeight
	}
	return w
}

// Expander generates the union of `cycles` random Hamiltonian cycles (a
// 2*cycles-regular multigraph). Unions of independent random cycles are
// expanders with high probability: low diameter, no sparse cuts — the
// regime in which broadcast trees are shallow and blocker sets small.
func Expander(c GenConfig, cycles int) *Graph {
	r := c.rng()
	if cycles < 1 {
		cycles = 1
	}
	g := New(c.N, c.Directed)
	for k := 0; k < cycles; k++ {
		perm := r.Perm(c.N)
		for i := 0; c.N > 1 && i < c.N; i++ {
			u, v := perm[i], perm[(i+1)%c.N]
			g.MustAddEdge(u, v, c.weight(r))
			if c.Directed {
				g.MustAddEdge(v, u, c.weight(r))
			}
		}
	}
	return g
}

// KTree generates a k-tree: a (k+1)-clique grown by repeatedly attaching a
// new vertex to a uniformly chosen existing k-clique. k-trees are exactly
// the maximal graphs of treewidth k, giving a workload family whose
// separators stay bounded as n grows (the structured counterpoint to the
// expander family).
func KTree(c GenConfig, k int) *Graph {
	r := c.rng()
	if k < 1 {
		k = 1
	}
	if k >= c.N {
		k = c.N - 1
	}
	g := New(c.N, c.Directed)
	addBoth := func(u, v int) {
		g.MustAddEdge(u, v, c.weight(r))
		if c.Directed {
			g.MustAddEdge(v, u, c.weight(r))
		}
	}
	base := k + 1
	for u := 0; u < base; u++ {
		for v := u + 1; v < base; v++ {
			addBoth(u, v)
		}
	}
	// cliques lists the k-cliques available for attachment.
	var cliques [][]int
	for drop := 0; drop < base; drop++ {
		cl := make([]int, 0, k)
		for u := 0; u < base; u++ {
			if u != drop {
				cl = append(cl, u)
			}
		}
		cliques = append(cliques, cl)
	}
	for v := base; v < c.N; v++ {
		cl := cliques[r.Intn(len(cliques))]
		for _, u := range cl {
			addBoth(v, u)
		}
		for drop := 0; drop < k; drop++ {
			next := make([]int, 0, k)
			for i, u := range cl {
				if i != drop {
					next = append(next, u)
				}
			}
			next = append(next, v)
			cliques = append(cliques, next)
		}
	}
	return g
}

// unionFind is a tiny path-halving union-find for generator connectivity
// bookkeeping.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }
