package csssp

import (
	"reflect"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/graph"
)

func TestUpcastSumSubtreeSizes(t *testing.T) {
	// Path 0-1-2-3-4, h=4, tree of source 0: subtree size of node i is 5-i.
	g := graph.New(5, false)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	c, nw := buildAll(t, g, 4, bford.Out)
	ones := make([]int64, 5)
	for i := range ones {
		ones[i] = 1
	}
	got, err := c.UpcastSum(nw, 0, ones)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if got[v] != int64(5-v) {
			t.Errorf("subtree size of %d = %d, want %d", v, got[v], 5-v)
		}
	}
}

func TestUpcastSumRespectsRemovals(t *testing.T) {
	g := graph.New(5, false)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	c, nw := buildAll(t, g, 4, bford.Out)
	inZ := make([]bool, 5)
	inZ[3] = true
	if err := c.RemoveSubtrees(nw, nil, inZ, false); err != nil {
		t.Fatal(err)
	}
	ones := make([]int64, 5)
	for i := range ones {
		ones[i] = 1
	}
	got, err := c.UpcastSum(nw, 0, ones)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 { // nodes 0,1,2 remain
		t.Errorf("root sum after removal = %d, want 3", got[0])
	}
	if got[3] != 0 || got[4] != 0 {
		t.Errorf("removed nodes contribute: %v", got)
	}
}

func TestUpcastSumWeighted(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 3})
	c, nw := buildAll(t, g, 2, bford.Out)
	init := []int64{0, 10, 20, 30, 40, 50}
	got, err := c.UpcastSum(nw, 0, init) // tree of the hub
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 150 {
		t.Errorf("hub total = %d, want 150", got[0])
	}
}

func TestLabelFieldSemantics(t *testing.T) {
	// Label must equal the 2h-hop oracle distance for every node, even
	// nodes outside the truncated tree.
	g := graph.RandomConnected(graph.GenConfig{N: 22, Directed: true, Seed: 5, MaxWeight: 10}, 66)
	h := 3
	c, _ := buildAll(t, g, h, bford.Out)
	for i, src := range c.Sources {
		want := graph.BellmanFordHops(g, src, 2*h)
		for v := 0; v < g.N; v++ {
			if c.Label[i][v] != want[v] {
				t.Fatalf("tree %d: Label[%d] = %d, want %d", i, v, c.Label[i][v], want[v])
			}
			if c.InTree(i, v) && c.Dist[i][v] > c.Label[i][v] {
				t.Fatalf("tree %d node %d: Dist %d > Label %d", i, v, c.Dist[i][v], c.Label[i][v])
			}
		}
	}
}

func TestResetRemovals(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 10, Seed: 2, MaxWeight: 4})
	c, nw := buildAll(t, g, 3, bford.Out)
	inZ := make([]bool, g.N)
	inZ[2], inZ[7] = true, true
	if err := c.RemoveSubtrees(nw, nil, inZ, false); err != nil {
		t.Fatal(err)
	}
	removedSomething := false
	for i := range c.Sources {
		for v := 0; v < g.N; v++ {
			if c.Removed[i][v] {
				removedSomething = true
			}
		}
	}
	if !removedSomething {
		t.Fatal("nothing removed before reset")
	}
	c.ResetRemovals()
	for i := range c.Sources {
		for v := 0; v < g.N; v++ {
			if c.Removed[i][v] {
				t.Fatalf("tree %d node %d still removed after reset", i, v)
			}
		}
	}
}

func TestRemoveSubtreesExcludeRoots(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 8, Seed: 3, MaxWeight: 4})
	c, nw := buildAll(t, g, 3, bford.Out)
	inZ := make([]bool, g.N)
	inZ[0] = true
	if err := c.RemoveSubtrees(nw, nil, inZ, true); err != nil {
		t.Fatal(err)
	}
	// Tree 0 is rooted at node 0: with excludeRoots it must stay intact.
	for v := 0; v < g.N; v++ {
		if c.Depth[0][v] >= 0 && c.Removed[0][v] {
			t.Errorf("tree 0 node %d removed despite excludeRoots", v)
		}
	}
	// In other trees node 0's subtree must be gone.
	if c.InTree(1, 0) {
		t.Error("node 0 survives in tree 1")
	}
}

func TestRemoveSubtreesLocalEquivalentToDistributed(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 18, Seed: 4, MaxWeight: 6}, 54)
	h := 3
	cd, nw := buildAll(t, g, h, bford.Out)
	cl, _ := buildAll(t, g, h, bford.Out)
	inZ := make([]bool, g.N)
	inZ[3], inZ[11] = true, true
	if err := cd.RemoveSubtrees(nw, nil, inZ, true); err != nil {
		t.Fatal(err)
	}
	cl.RemoveSubtreesLocal(inZ, true)
	for i := range cd.Sources {
		for v := 0; v < g.N; v++ {
			if cd.Removed[i][v] != cl.Removed[i][v] {
				t.Fatalf("tree %d node %d: distributed %v != local %v",
					i, v, cd.Removed[i][v], cl.Removed[i][v])
			}
		}
	}
}

func TestInCSSSPPathsPointTowardSink(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 16, Directed: true, Seed: 6, MaxWeight: 8}, 60)
	c, _ := buildAll(t, g, 4, bford.In)
	for i, sink := range c.Sources {
		for v := 0; v < g.N; v++ {
			if !c.InTree(i, v) || v == sink {
				continue
			}
			path := c.PathToRoot(i, v)
			if path[len(path)-1] != sink {
				t.Fatalf("in-tree %d: path from %d ends at %d, not sink %d", i, v, path[len(path)-1], sink)
			}
			// Consecutive path nodes must be connected by a forward edge
			// (v -> parent direction for in-trees).
			for j := 0; j+1 < len(path); j++ {
				ok := false
				g.OutNeighbors(path[j], func(u int, _ int64) {
					if u == path[j+1] {
						ok = true
					}
				})
				if !ok {
					t.Fatalf("in-tree %d: %d->%d is not an edge", i, path[j], path[j+1])
				}
			}
		}
	}
}

// TestBuildIntoMatchesBuild rebuilds one collection over collections of
// other graphs, hop bounds, modes and source sets, some pruned: each
// rebuild must equal a fresh Build field for field (derived child lists
// and leaf lists included), and a rebuild of the same shape must reuse the
// rows' storage.
func TestBuildIntoMatchesBuild(t *testing.T) {
	dense := graph.RandomConnected(graph.GenConfig{N: 20, Seed: 3, MaxWeight: 6, Directed: true}, 50)
	ring := graph.Ring(graph.GenConfig{N: 20, Seed: 4, MaxWeight: 3})
	type spec struct {
		g     *graph.Graph
		h     int
		mode  bford.Mode
		srcs  []int
		prune bool
	}
	specs := []spec{
		{dense, 3, bford.Out, allSources(20), true},
		{ring, 2, bford.In, []int{3, 7, 11}, false},
		{ring, 5, bford.Out, allSources(20), true},
		{dense, 3, bford.Out, allSources(20), false},
	}
	var c Collection
	for k, sp := range specs {
		nw := newNet(t, sp.g)
		before := c.Dist
		if err := BuildInto(&c, nw, sp.g, sp.srcs, sp.h, sp.mode); err != nil {
			t.Fatal(err)
		}
		want, err := Build(newNet(t, sp.g), sp.g, sp.srcs, sp.h, sp.mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&c, want) {
			t.Fatalf("spec %d: rebuilt collection differs from a fresh Build", k)
		}
		if k == 3 && &c.Dist[0][0] != &before[0][0] {
			t.Errorf("spec %d: rebuild of the same shape reallocated the rows", k)
		}
		if sp.prune {
			inZ := make([]bool, sp.g.N)
			inZ[1], inZ[6] = true, true
			c.RemoveSubtreesLocal(inZ, true)
		}
	}
}
