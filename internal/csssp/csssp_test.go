package csssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

func newNet(t *testing.T, g *graph.Graph) *congest.Network {
	t.Helper()
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func allSources(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func buildAll(t *testing.T, g *graph.Graph, h int, mode bford.Mode) (*Collection, *congest.Network) {
	t.Helper()
	nw := newNet(t, g)
	c, err := Build(nw, g, allSources(g.N), h, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c, nw
}

func TestBuildRejectsBadH(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 5, Seed: 1, MaxWeight: 3})
	nw := newNet(t, g)
	if _, err := Build(nw, g, allSources(5), 0, bford.Out); err == nil {
		t.Error("h=0 accepted")
	}
}

func TestContainmentPropertyOut(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, dir := range []bool{false, true} {
			g := graph.RandomConnected(graph.GenConfig{N: 24, Directed: dir, Seed: seed, MaxWeight: 10}, 70)
			c, _ := buildAll(t, g, 3, bford.Out)
			if err := c.CheckContainment(); err != nil {
				t.Errorf("seed=%d dir=%v: %v", seed, dir, err)
			}
		}
	}
}

func TestContainmentPropertyIn(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 20, Directed: true, Seed: 5, MaxWeight: 10}, 60)
	c, _ := buildAll(t, g, 4, bford.In)
	if err := c.CheckContainment(); err != nil {
		t.Error(err)
	}
}

func TestTreeHeightBounded(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 30, Seed: 2, MaxWeight: 8}, 80)
	h := 4
	c, _ := buildAll(t, g, h, bford.Out)
	for i := range c.Sources {
		for v := 0; v < g.N; v++ {
			if c.Depth[i][v] > h {
				t.Fatalf("tree %d node %d depth %d > h %d", i, v, c.Depth[i][v], h)
			}
			if c.Depth[i][v] >= 0 && c.Dist[i][v] >= graph.Inf {
				t.Fatalf("tree %d node %d in tree but dist Inf", i, v)
			}
		}
	}
}

func TestTreePathsRealizeDistances(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 25, Directed: true, Seed: 9, MaxWeight: 12}, 75)
	h := 5
	c, _ := buildAll(t, g, h, bford.Out)
	for i, src := range c.Sources {
		for v := 0; v < g.N; v++ {
			if !c.InTree(i, v) || v == src {
				continue
			}
			path := c.PathToRoot(i, v)
			if path[len(path)-1] != src {
				t.Fatalf("tree %d: path from %d does not end at source %d", i, v, src)
			}
			if len(path)-1 != c.Depth[i][v] {
				t.Fatalf("tree %d node %d: path hops %d != depth %d", i, v, len(path)-1, c.Depth[i][v])
			}
			// Path weight must equal the recorded distance (walk the tree
			// path, summing min parallel-edge weights out of each parent).
			var sum int64
			for j := len(path) - 1; j > 0; j-- {
				u, w := path[j], path[j-1]
				best := graph.Inf
				g.OutNeighbors(u, func(x int, wt int64) {
					if x == w && wt < best {
						best = wt
					}
				})
				sum += best
			}
			if sum != c.Dist[i][v] {
				t.Fatalf("tree %d node %d: path weight %d != dist %d", i, v, sum, c.Dist[i][v])
			}
		}
	}
}

func TestConsistencyOnFamilies(t *testing.T) {
	families := []*graph.Graph{
		graph.RandomConnected(graph.GenConfig{N: 24, Seed: 1, MaxWeight: 9}, 60),
		graph.Grid(4, 6, graph.GenConfig{Seed: 2, MaxWeight: 9}),
		graph.Ring(graph.GenConfig{N: 18, Seed: 3, MaxWeight: 9}),
		graph.Layered(5, 4, graph.GenConfig{Seed: 4, MaxWeight: 9}),
	}
	for fi, g := range families {
		c, _ := buildAll(t, g, 3, bford.Out)
		checked, err := c.CheckConsistency()
		if err != nil {
			t.Errorf("family %d: %v (after %d pairs)", fi, err, checked)
		}
		if checked == 0 {
			t.Errorf("family %d: consistency check inspected no pairs", fi)
		}
	}
}

func TestFullLengthLeavesAndPathVertices(t *testing.T) {
	// Path graph 0-1-2-3-4, h=2: tree of source 0 has leaf 2 at depth 2.
	g := graph.New(5, false)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	c, _ := buildAll(t, g, 2, bford.Out)
	leaves := c.FullLengthLeaves(0)
	if len(leaves) != 1 || leaves[0] != 2 {
		t.Fatalf("full-length leaves of tree 0 = %v, want [2]", leaves)
	}
	pv := c.PathVertices(0, 2)
	if len(pv) != 2 || pv[0] != 2 || pv[1] != 1 {
		t.Fatalf("path vertices = %v, want [2 1] (root excluded)", pv)
	}
	if got := c.PathVertices(0, 1); got != nil {
		t.Errorf("PathVertices of non-full-length leaf = %v, want nil", got)
	}
}

func TestRemoveSubtrees(t *testing.T) {
	// Path 0-1-2-3-4: removing node 2 from tree of source 0 must remove 2,
	// 3 (and beyond within the h-horizon) but keep 0, 1.
	g := graph.New(5, false)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	c, nw := buildAll(t, g, 4, bford.Out)
	inZ := make([]bool, 5)
	inZ[2] = true
	if err := c.RemoveSubtrees(nw, nil, inZ, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		v  int
		in bool
	}{{0, true}, {1, true}, {2, false}, {3, false}, {4, false}} {
		if got := c.InTree(0, want.v); got != want.in {
			t.Errorf("after removal: InTree(0,%d) = %v, want %v", want.v, got, want.in)
		}
	}
	// In the tree rooted at 3, node 2's subtree is {2, 1, 0}.
	if c.InTree(3, 1) || c.InTree(3, 0) {
		t.Error("descendants of removed node survive in tree 3")
	}
	if !c.InTree(3, 4) {
		t.Error("node 4 wrongly removed from tree 3")
	}
}

func TestRemoveSubtreesRoundCost(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 20, Seed: 6, MaxWeight: 5}, 50)
	h := 3
	c, nw := buildAll(t, g, h, bford.Out)
	nw.ResetStats()
	inZ := make([]bool, g.N)
	inZ[1], inZ[5] = true, true
	if err := c.RemoveSubtrees(nw, nil, inZ, false); err != nil {
		t.Fatal(err)
	}
	want := len(c.Sources) * (h + 1) // Lemma 3.7: <= h rounds per source
	if nw.Stats.Rounds != want {
		t.Errorf("removal rounds = %d, want %d", nw.Stats.Rounds, want)
	}
}

func TestChildrenConsistentWithParents(t *testing.T) {
	g := graph.Grid(4, 5, graph.GenConfig{Seed: 8, MaxWeight: 6})
	c, _ := buildAll(t, g, 3, bford.Out)
	for i := range c.Sources {
		ch := c.Children(i)
		count := 0
		for v, kids := range ch {
			for _, k := range kids {
				if c.Parent[i][k] != v {
					t.Fatalf("tree %d: child %d of %d has parent %d", i, k, v, c.Parent[i][k])
				}
				count++
			}
		}
		// Every non-root in-tree node appears exactly once as a child.
		inTree := 0
		for v := 0; v < g.N; v++ {
			if c.InTree(i, v) && v != c.Sources[i] {
				inTree++
			}
		}
		if count != inTree {
			t.Errorf("tree %d: %d child links, want %d", i, count, inTree)
		}
	}
}

func TestBuildRoundCost(t *testing.T) {
	// Lemma A.4: O(|S| * h) rounds; our construction runs 2h+1 rounds per
	// source.
	g := graph.Ring(graph.GenConfig{N: 16, Seed: 4, MaxWeight: 5})
	nw := newNet(t, g)
	h := 3
	srcs := []int{0, 5, 9}
	if _, err := Build(nw, g, srcs, h, bford.Out); err != nil {
		t.Fatal(err)
	}
	want := len(srcs) * (4*h + 3) // (2h+1)-round BF + (2h+2)-round confirmation wave
	if nw.Stats.Rounds != want {
		t.Errorf("build rounds = %d, want %d", nw.Stats.Rounds, want)
	}
}

// Property: on random graphs, every in-tree entry of an Out collection has
// a distance equal to the h-hop oracle whenever the oracle's h-hop distance
// equals the true distance.
func TestQuickCSSSPContainment(t *testing.T) {
	f := func(seed int64, nRaw, hRaw uint8, directed bool) bool {
		n := 6 + int(nRaw%18)
		h := 1 + int(hRaw%6)
		g := graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: seed, MaxWeight: 15}, 3*n)
		nw, err := congest.NewNetwork(g, 1)
		if err != nil {
			return false
		}
		c, err := Build(nw, g, allSources(n), h, bford.Out)
		if err != nil {
			return false
		}
		return c.CheckContainment() == nil
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
