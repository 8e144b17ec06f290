package csssp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// observed is what one call leaves behind on a network with fresh Stats:
// the Stats, the (round sequence, delivered) pairs OnRound saw (nil when
// the call ran without a hook), and the error.
type observed struct {
	stats  congest.Stats
	stream [][2]int
	err    string
}

// observe runs call on nw. With cancelAt >= 0 a context armed on nw is
// canceled from OnRound after round cancelAt, so a longer run stops there.
// With hook false no OnRound hook is installed, so ShardRuns may dispatch
// to the worker fleet.
func observe(nw *congest.Network, cancelAt int, hook bool, call func() error) observed {
	nw.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt >= 0 {
		nw.SetContext(ctx)
	}
	var o observed
	if hook {
		o.stream = [][2]int{}
		nw.OnRound = func(seq, delivered int) {
			o.stream = append(o.stream, [2]int{seq, delivered})
			if seq == cancelAt {
				cancel()
			}
		}
	}
	err := call()
	nw.OnRound = nil
	nw.SetContext(nil)
	if err != nil {
		o.err = err.Error()
	}
	o.stats = nw.Stats
	o.stats.WordsByNode = slices.Clone(nw.Stats.WordsByNode)
	return o
}

// treeFamilies are the generated graphs of the differential tests: rings,
// stars, paths and random graphs, directed and undirected.
var treeFamilies = []struct {
	name  string
	build func(n int, directed bool) *graph.Graph
}{
	{"ring", func(n int, directed bool) *graph.Graph {
		return graph.Ring(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"star", func(n int, directed bool) *graph.Graph {
		return graph.Star(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"path", func(n int, directed bool) *graph.Graph {
		g := graph.New(n, directed)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, 1+int64(v%2))
		}
		return g
	}},
	{"random", func(n int, directed bool) *graph.Graph {
		return graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: int64(3 * n), MaxWeight: 3}, 2*n)
	}},
}

// removalStep is one commit of a removal sequence: RemoveSubtrees of the
// nodes in Z.
type removalStep struct {
	inZ          func(n, v int) bool
	excludeRoots bool
}

// removalSteps are the removal states the differential tests walk
// through, each reached from the previous one by RemoveSubtrees: Z holds
// nested members (a node and some of its descendants), the root of tree 0
// (kept, since roots are excluded) and then the root of tree 1 (whose whole
// tree leaves). Three generated commits follow, each with one to three
// random nodes in Z and excludeRoots drawn at random.
func removalSteps(n int) []removalStep {
	steps := []removalStep{
		{func(n, v int) bool { return v == 0 || v%5 == 2 }, true},
		{func(n, v int) bool { return v == 1 || v%7 == 3 || v == n-1 }, false},
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range 3 {
		z := make([]bool, n)
		for j := rng.Intn(3); j >= 0; j-- {
			z[rng.Intn(n)] = true
		}
		steps = append(steps, removalStep{func(_, v int) bool { return z[v] }, rng.Intn(2) == 0})
	}
	return steps
}

// checkKept fails unless every kept walk of c, its depth histogram
// included, equals a fresh Walk.
func checkKept(t *testing.T, name string, c *Collection, kept *Walks) {
	t.Helper()
	var fresh TreeWalk
	for i := range c.Sources {
		c.Walk(&fresh, i)
		w := kept.Tree(i)
		if !slices.Equal(w.Nodes, fresh.Nodes) || !slices.Equal(w.Kids, fresh.Kids) || !slices.Equal(w.Hist, fresh.Hist) {
			t.Fatalf("%s: kept walk of tree %d is %v %v %v, a fresh walk %v %v %v", name, i, w.Nodes, w.Kids, w.Hist, fresh.Nodes, fresh.Kids, fresh.Hist)
		}
	}
}

// walkAll resets kept for c and walks every tree into it.
func walkAll(c *Collection, kept *Walks) {
	kept.Reset(c)
	for i := range c.Sources {
		c.Walk(kept.Tree(i), i)
	}
}

// removeSubtreesRef is RemoveSubtrees on the reference flood: per tree on
// the shard fleet, applying a tree's removals when its flood succeeds.
func (c *Collection) removeSubtreesRef(nw *congest.Network, inZ []bool, excludeRoots bool) error {
	return nw.ShardRuns(len(c.Sources), func(w *congest.Network, i int) error {
		gone := w.Scratch().Bools(c.G.N)
		if err := c.removeRef(w, i, inZ, excludeRoots, gone); err != nil {
			return fmt.Errorf("csssp: remove-subtrees tree %d: %w", i, err)
		}
		for v, g := range gone {
			if g {
				c.Removed[i][v] = true
			}
		}
		return nil
	})
}

func removedCopy(c *Collection) [][]bool {
	out := make([][]bool, len(c.Removed))
	for i, row := range c.Removed {
		out[i] = slices.Clone(row)
	}
	return out
}

func restoreRemoved(c *Collection, saved [][]bool) {
	for i, row := range saved {
		copy(c.Removed[i], row)
	}
}

// TestTreeChargeMatchesReference is the differential test of the charged
// per-tree primitives of this package. Over generated rings, stars, paths
// and random graphs, directed and undirected, with n from 2 to 64, the
// removal states of removalSteps and bandwidths 1-3, built sequentially and
// source-sharded, each UpcastSumInto and RemoveSubtrees call must leave the
// same Stats, WordsByNode, OnRound stream, error and outputs as its
// reference protocol on the engine: the sums at the tree's
// nodes (the rest of acc untouched) and the Removed bits. The calls read
// kept walks, which RemoveSubtrees keeps current: after every removal each
// must equal a fresh Walk. Each call also runs canceled after round 1 and
// after round 2, where the outputs must equal what the reference nodes
// hold when it stops. The host convergecast UpcastSumLocal must give the
// reference sums too. Sharded, RemoveSubtrees also runs once without an
// OnRound hook, so the worker fleet runs it.
func TestTreeChargeMatchesReference(t *testing.T) {
	for _, fam := range treeFamilies {
		for _, directed := range []bool{false, true} {
			for _, n := range []int{2, 3, 7, 16, 41, 64} {
				g := fam.build(n, directed)
				for bw := 1; bw <= 3; bw++ {
					for _, parallel := range []bool{false, true} {
						name := fmt.Sprintf("%s/directed=%v/n=%d/b=%d/parallel=%v", fam.name, directed, n, bw, parallel)
						checkTreeCase(t, name, g, bw, parallel)
					}
				}
			}
		}
	}
}

func checkTreeCase(t *testing.T, name string, g *graph.Graph, bw int, parallel bool) {
	n := g.N
	h := min(n, 5)
	build := func() (*Collection, *congest.Network) {
		nw, err := congest.NewNetwork(g, bw)
		if err != nil {
			t.Fatal(err)
		}
		nw.Parallel = parallel
		c, err := Build(nw, g, allSources(n), h, bford.Out)
		if err != nil {
			t.Fatal(err)
		}
		return c, nw
	}
	cc, ch := build()
	rc, ref := build()
	init := make([]int64, n)
	for v := range init {
		init[v] = int64(v%3 + 1)
	}
	acc, want, local := make([]int64, n), make([]int64, n), make([]int64, n)
	var kept Walks
	walkAll(cc, &kept)
	const untouched = -7
	checkUpcasts := func(state int) {
		checkKept(t, fmt.Sprintf("%s: removal state %d", name, state), cc, &kept)
		for i := range cc.Sources {
			for _, cancelAt := range []int{-1, 1, 2} {
				for v := range acc {
					acc[v] = untouched
				}
				got := observe(ch, cancelAt, true, func() error { return cc.UpcastSumInto(ch, kept.Tree(i), i, init, acc) })
				exp := observe(ref, cancelAt, true, func() error {
					err := rc.UpcastRef(ref, i, init, want)
					if err != nil {
						err = fmt.Errorf("csssp: upcast tree %d: %w", i, err)
					}
					return err
				})
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s: removal state %d: upcast tree %d canceled after round %d: charged %+v\nreference %+v", name, state, i, cancelAt, got, exp)
				}
				for v := 0; v < n; v++ {
					if cc.InTree(i, v) && acc[v] != want[v] {
						t.Fatalf("%s: removal state %d: upcast tree %d canceled after round %d: node %d sums %d, reference %d", name, state, i, cancelAt, v, acc[v], want[v])
					}
					if !cc.InTree(i, v) && acc[v] != untouched {
						t.Fatalf("%s: removal state %d: upcast tree %d wrote node %d outside the tree", name, state, i, v)
					}
				}
				if cancelAt >= 0 {
					continue
				}
				cc.UpcastSumLocal(kept.Tree(i), i, init, local)
				for v := 0; v < n; v++ {
					if cc.InTree(i, v) && local[v] != want[v] {
						t.Fatalf("%s: removal state %d: local upcast tree %d: node %d sums %d, reference %d", name, state, i, v, local[v], want[v])
					}
				}
			}
		}
	}
	checkUpcasts(0)
	for s, step := range removalSteps(n) {
		inZ := make([]bool, n)
		for v := range inZ {
			inZ[v] = step.inZ(n, v)
		}
		for _, cancelAt := range []int{1, 2, -1} {
			hook := cancelAt >= 0 || !parallel
			savedC, savedR := removedCopy(cc), removedCopy(rc)
			got := observe(ch, cancelAt, hook, func() error { return cc.RemoveSubtrees(ch, &kept, inZ, step.excludeRoots) })
			exp := observe(ref, cancelAt, hook, func() error { return rc.removeSubtreesRef(ref, inZ, step.excludeRoots) })
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s: remove step %d canceled after round %d: charged %+v\nreference %+v", name, s, cancelAt, got, exp)
			}
			if !reflect.DeepEqual(cc.Removed, rc.Removed) {
				t.Fatalf("%s: remove step %d canceled after round %d: Removed differs from the reference", name, s, cancelAt)
			}
			checkKept(t, fmt.Sprintf("%s: remove step %d canceled after round %d", name, s, cancelAt), cc, &kept)
			if cancelAt >= 0 {
				restoreRemoved(cc, savedC)
				restoreRemoved(rc, savedR)
				walkAll(cc, &kept)
			}
		}
		checkUpcasts(s + 1)
	}
}
