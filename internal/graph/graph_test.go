package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, true)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 1, -5); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestOutInNeighborsDirected(t *testing.T) {
	g := New(4, true)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 20)
	g.MustAddEdge(3, 0, 30)

	var outs []int
	g.OutNeighbors(0, func(v int, w int64) { outs = append(outs, v) })
	if len(outs) != 2 {
		t.Fatalf("out-neighbors of 0: %v, want 2 entries", outs)
	}
	var ins []int
	g.InNeighbors(0, func(u int, w int64) { ins = append(ins, u) })
	if len(ins) != 1 || ins[0] != 3 {
		t.Fatalf("in-neighbors of 0: %v, want [3]", ins)
	}
}

func TestOutInNeighborsUndirected(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 7)
	var fromZero, fromOne []int
	g.OutNeighbors(0, func(v int, w int64) { fromZero = append(fromZero, v) })
	g.OutNeighbors(1, func(v int, w int64) { fromOne = append(fromOne, v) })
	if len(fromZero) != 1 || fromZero[0] != 1 {
		t.Errorf("neighbors of 0: %v", fromZero)
	}
	if len(fromOne) != 1 || fromOne[0] != 0 {
		t.Errorf("neighbors of 1: %v", fromOne)
	}
}

func TestReverse(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 6)
	r := g.Reverse()
	d := Dijkstra(r, 2)
	if d[0] != 11 || d[1] != 6 {
		t.Errorf("reverse distances from 2: %v", d)
	}
}

func TestUnderlyingUndirectedCollapsesParallel(t *testing.T) {
	g := New(2, true)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 0, 3)
	u := g.UnderlyingUndirected()
	if u.M() != 1 {
		t.Fatalf("UG edges = %d, want 1", u.M())
	}
	if u.Edges()[0].W != 3 {
		t.Errorf("UG weight = %d, want min 3", u.Edges()[0].W)
	}
}

func TestDijkstraSmall(t *testing.T) {
	g := New(5, true)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(2, 1, 4)
	g.MustAddEdge(1, 3, 2)
	g.MustAddEdge(2, 3, 8)
	g.MustAddEdge(3, 4, 0)
	d := Dijkstra(g, 0)
	want := []int64{0, 7, 3, 9, 9}
	for v, w := range want {
		if d[v] != w {
			t.Errorf("dist[%d] = %d, want %d", v, d[v], w)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 1, 1)
	d := Dijkstra(g, 0)
	if d[2] != Inf {
		t.Errorf("dist[2] = %d, want Inf", d[2])
	}
}

func TestBellmanFordHopsRespectsBound(t *testing.T) {
	// 0 -> 1 -> 2 (weight 1+1) vs direct 0 -> 2 (weight 10).
	g := New(3, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 10)
	if d := BellmanFordHops(g, 0, 1); d[2] != 10 {
		t.Errorf("1-hop dist[2] = %d, want 10", d[2])
	}
	if d := BellmanFordHops(g, 0, 2); d[2] != 2 {
		t.Errorf("2-hop dist[2] = %d, want 2", d[2])
	}
}

func TestFloydWarshallMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, dir := range []bool{false, true} {
			g := RandomConnected(GenConfig{N: 30, Directed: dir, Seed: seed, MaxWeight: 20}, 90)
			fw := FloydWarshall(g)
			for src := 0; src < g.N; src++ {
				dj := Dijkstra(g, src)
				for v := 0; v < g.N; v++ {
					if fw[src][v] != dj[v] {
						t.Fatalf("seed=%d dir=%v: FW[%d][%d]=%d, Dijkstra=%d", seed, dir, src, v, fw[src][v], dj[v])
					}
				}
			}
		}
	}
}

func TestHopsOnShortestPath(t *testing.T) {
	// Two shortest paths 0->3 of weight 2: via 1 (2 hops) and via 1,2 (3 hops).
	g := New(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(2, 3, 1)
	h := HopsOnShortestPath(g, 0)
	if h[3] != 2 {
		t.Errorf("hops[3] = %d, want 2 (min hops over shortest paths)", h[3])
	}
	if h[0] != 0 {
		t.Errorf("hops[0] = %d, want 0", h[0])
	}
}

func TestHopsUnreachable(t *testing.T) {
	g := New(2, true)
	h := HopsOnShortestPath(g, 0)
	if h[1] != -1 {
		t.Errorf("hops[1] = %d, want -1", h[1])
	}
}

func TestGeneratorsConnected(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"random-undir", RandomConnected(GenConfig{N: 40, Seed: 1, MaxWeight: 9}, 80)},
		{"random-dir", RandomConnected(GenConfig{N: 40, Directed: true, Seed: 2, MaxWeight: 9}, 120)},
		{"ring", Ring(GenConfig{N: 25, Seed: 3, MaxWeight: 9})},
		{"ring-dir", Ring(GenConfig{N: 25, Directed: true, Seed: 3, MaxWeight: 9})},
		{"grid", Grid(5, 8, GenConfig{Seed: 4, MaxWeight: 9})},
		{"layered", Layered(6, 4, GenConfig{Seed: 5, MaxWeight: 9})},
		{"layered-dir", Layered(6, 4, GenConfig{Directed: true, Seed: 5, MaxWeight: 9})},
		{"star", Star(GenConfig{N: 20, Seed: 6, MaxWeight: 9})},
		{"zeromix", ZeroWeightMix(GenConfig{N: 30, Seed: 7, MaxWeight: 9}, 60)},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", tc.name, err)
		}
		if !IsConnectedUG(tc.g) {
			t.Errorf("%s: underlying undirected graph disconnected", tc.name)
		}
	}
}

// TestGeneratorsSmallN: every generator, directed and undirected, returns
// the N-node graph at N = 0, 1 and 2 with a connected underlying graph,
// and one without edges below two nodes even when asked for edges.
func TestGeneratorsSmallN(t *testing.T) {
	gens := []struct {
		name string
		gen  func(c GenConfig) *Graph
	}{
		{"random", func(c GenConfig) *Graph { return RandomConnected(c, 3) }},
		{"zeromix", func(c GenConfig) *Graph { return ZeroWeightMix(c, 3) }},
		{"ring", Ring},
		{"grid", func(c GenConfig) *Graph { return Grid(1, c.N, c) }},
		{"layered", func(c GenConfig) *Graph { return Layered(c.N, 1, c) }},
		{"star", Star},
		{"disjointpaths", func(c GenConfig) *Graph { return DisjointPaths(1, c.N-1, 9, c) }},
		{"powerlaw", func(c GenConfig) *Graph { return PowerLaw(c, 3) }},
		{"geometric", func(c GenConfig) *Graph { return RandomGeometric(c, 0) }},
		{"expander", func(c GenConfig) *Graph { return Expander(c, 3) }},
		{"ktree", func(c GenConfig) *Graph { return KTree(c, 4) }},
	}
	for _, gc := range gens {
		for n := 0; n <= 2; n++ {
			for _, directed := range []bool{false, true} {
				name := fmt.Sprintf("%s/n=%d/directed=%v", gc.name, n, directed)
				g := gc.gen(GenConfig{N: n, Directed: directed, Seed: 1, MaxWeight: 9})
				if err := g.Validate(); err != nil {
					t.Errorf("%s: invalid: %v", name, err)
				}
				if g.N != n || !IsConnectedUG(g) || n <= 1 && g.M() > 0 {
					t.Errorf("%s: got %d nodes and %d edges, connected %v", name, g.N, g.M(), IsConnectedUG(g))
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomConnected(GenConfig{N: 30, Directed: true, Seed: 42, MaxWeight: 50}, 90)
	b := RandomConnected(GenConfig{N: 30, Directed: true, Seed: 42, MaxWeight: 50}, 90)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestDirectedRingStronglyConnected(t *testing.T) {
	g := Ring(GenConfig{N: 12, Directed: true, Seed: 1, MaxWeight: 5})
	for src := 0; src < g.N; src++ {
		seen := ReachableFrom(g, src)
		for v, s := range seen {
			if !s {
				t.Fatalf("node %d unreachable from %d in directed ring", v, src)
			}
		}
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over edges,
// and BellmanFordHops is monotone non-increasing in the hop bound.
func TestQuickShortestPathProperties(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, directed bool) bool {
		n := 5 + int(nRaw%25)
		m := n + int(mRaw)%(3*n)
		g := RandomConnected(GenConfig{N: n, Directed: directed, Seed: seed, MaxWeight: 30}, m)
		src := int(uint(seed) % uint(n))
		d := Dijkstra(g, src)
		ok := true
		for _, e := range g.Edges() {
			check := func(u, v int, w int64) {
				if d[u] < Inf && d[u]+w < d[v] {
					ok = false
				}
			}
			check(e.U, e.V, e.W)
			if !directed {
				check(e.V, e.U, e.W)
			}
		}
		prev := BellmanFordHops(g, src, 1)
		for h := 2; h <= 5; h++ {
			cur := BellmanFordHops(g, src, h)
			for v := range cur {
				if cur[v] > prev[v] {
					ok = false
				}
			}
			prev = cur
		}
		// At hop bound n-1 the bounded distances equal the true distances.
		full := BellmanFordHops(g, src, n-1)
		for v := range full {
			if full[v] != d[v] {
				ok = false
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDisjointPathsStructure(t *testing.T) {
	k, plen := 5, 3
	g := DisjointPaths(k, plen, 500, GenConfig{Seed: 9, MaxWeight: 4})
	if g.N != k*(plen+1) {
		t.Fatalf("n = %d, want %d", g.N, k*(plen+1))
	}
	if !IsConnectedUG(g) {
		t.Fatal("disjoint-paths graph disconnected")
	}
	// Path-internal distances must use the light path edges, never the
	// heavy connectors: dist(head, tail) within one path <= plen*MaxWeight.
	d := Dijkstra(g, 0)
	if d[plen] > int64(plen)*4 {
		t.Errorf("within-path distance %d uses heavy connectors", d[plen])
	}
	// Crossing to another path must pay at least one heavy connector.
	if d[plen+1] < 500 {
		t.Errorf("cross-path distance %d cheaper than a connector", d[plen+1])
	}
}

func TestDisjointPathsDirected(t *testing.T) {
	g := DisjointPaths(4, 2, 100, GenConfig{Directed: true, Seed: 3, MaxWeight: 5})
	for src := 0; src < g.N; src += 3 {
		seen := ReachableFrom(g, src)
		for v, s := range seen {
			if !s {
				t.Fatalf("node %d unreachable from %d in directed disjoint-paths", v, src)
			}
		}
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	g := New(2, true)
	g.MustAddEdge(0, 1, 9)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(0, 1, 7)
	d := Dijkstra(g, 0)
	if d[1] != 3 {
		t.Errorf("parallel-edge dist = %d, want min 3", d[1])
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestOutDegree(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 {
		t.Errorf("out-degrees: %d, %d", g.OutDegree(0), g.OutDegree(1))
	}
	u := New(2, false)
	u.MustAddEdge(0, 1, 1)
	if u.OutDegree(0) != 1 || u.OutDegree(1) != 1 {
		t.Error("undirected incident counts wrong")
	}
}
