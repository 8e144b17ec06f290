package broadcast

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// observed is what one primitive call leaves behind on a network with
// fresh Stats: the Stats, the (round sequence, delivered) pairs OnRound
// saw, and the call's result or error.
type observed struct {
	stats  congest.Stats
	stream [][2]int
	items  []Item
	sums   []int64
	err    string
}

// observe runs call on nw. With cancelAt >= 0 a context armed on nw is
// canceled from OnRound after round cancelAt, so a longer run stops there.
func observe(nw *congest.Network, cancelAt int, call func() ([]Item, []int64, error)) observed {
	nw.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt >= 0 {
		nw.SetContext(ctx)
	}
	var o observed
	nw.OnRound = func(seq, delivered int) {
		o.stream = append(o.stream, [2]int{seq, delivered})
		if seq == cancelAt {
			cancel()
		}
	}
	items, sums, err := call()
	nw.OnRound = nil
	nw.SetContext(nil)
	if err != nil {
		o.err = err.Error()
	}
	o.stats = nw.Stats
	o.stats.WordsByNode = slices.Clone(nw.Stats.WordsByNode)
	o.items, o.sums = slices.Clone(items), slices.Clone(sums)
	return o
}

// itemPatterns are the per-node item counts the differential test covers
// on tree t at bandwidth b: none, all at the root, one per node, skewed
// toward one node, only below the middle depth, only at the leaves, and
// seeded random counts of 0..2b+1.
var itemPatterns = []struct {
	name string
	cnt  func(t *Tree, b int) []int
}{
	{"none", countEach(func(t *Tree, v int) int { return 0 })},
	{"root-only", countEach(func(t *Tree, v int) int {
		if v == t.Root {
			return 5
		}
		return 0
	})},
	{"one-each", countEach(func(t *Tree, v int) int { return 1 })},
	{"skewed", countEach(func(t *Tree, v int) int {
		if v == len(t.Parent)-1 {
			return 2 * len(t.Parent)
		}
		return v % 3
	})},
	{"deep-only", countEach(func(t *Tree, v int) int {
		if t.Depth[v] > t.Height/2 {
			return 1 + v%2
		}
		return 0
	})},
	{"leaves-only", countEach(func(t *Tree, v int) int {
		if len(t.Children[v]) == 0 {
			return 1 + v%3
		}
		return 0
	})},
	{"random", func(t *Tree, b int) []int {
		rng := rand.New(rand.NewSource(int64(len(t.Parent)*8 + b)))
		out := make([]int, len(t.Parent))
		for v := range out {
			out[v] = rng.Intn(2*b + 2)
		}
		return out
	}},
}

// countEach lifts a per-node count to an item pattern.
func countEach(f func(t *Tree, v int) int) func(t *Tree, b int) []int {
	return func(t *Tree, _ int) []int {
		out := make([]int, len(t.Parent))
		for v := range out {
			out[v] = f(t, v)
		}
		return out
	}
}

// treeGraph returns the undirected tree on n nodes with parent(v) for
// every v >= 1, unit weights.
func treeGraph(n int, parent func(v int) int) *graph.Graph {
	g := graph.New(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(parent(v), v, 1)
	}
	return g
}

// TestChargeMatchesReference is the differential test of the charged
// primitives: over generated rings, stars, paths, random graphs, binary
// trees, caterpillars (a path with a leaf on each node) and brooms (a long
// path ending in a star) with n from 2 to 64, two roots, the item patterns
// above and bandwidths 1-3, every charged call must leave the same Stats,
// WordsByNode, OnRound stream and result as its reference protocol on the
// engine. Each case also runs canceled after round 2 and after the middle
// round of the gather, where both must stop with the same error and the
// same partial Stats. It also checks the gather round bound the doc
// comment states: at most Height + ceil(K/bandwidth) for the K items below
// the root.
func TestChargeMatchesReference(t *testing.T) {
	families := []struct {
		name  string
		build func(n int) *graph.Graph
	}{
		{"ring", func(n int) *graph.Graph { return graph.Ring(graph.GenConfig{N: n, Seed: int64(n), MaxWeight: 3}) }},
		{"star", func(n int) *graph.Graph { return graph.Star(graph.GenConfig{N: n, Seed: int64(n), MaxWeight: 3}) }},
		{"path", func(n int) *graph.Graph { return treeGraph(n, func(v int) int { return v - 1 }) }},
		{"random", func(n int) *graph.Graph {
			return graph.RandomConnected(graph.GenConfig{N: n, Seed: int64(3 * n), MaxWeight: 3}, 2*n)
		}},
		{"binary", func(n int) *graph.Graph { return treeGraph(n, func(v int) int { return (v - 1) / 2 }) }},
		{"caterpillar", func(n int) *graph.Graph {
			spine := (n + 1) / 2
			return treeGraph(n, func(v int) int {
				if v < spine {
					return v - 1
				}
				return v - spine
			})
		}},
		{"broom", func(n int) *graph.Graph {
			handle := (n + 1) / 2
			return treeGraph(n, func(v int) int { return min(v, handle) - 1 })
		}},
	}
	for _, fam := range families {
		for _, n := range []int{2, 3, 7, 16, 41, 64} {
			g := fam.build(n)
			for _, root := range []int{0, n / 2} {
				for _, pat := range itemPatterns {
					for bw := 1; bw <= 3; bw++ {
						name := fmt.Sprintf("%s/n=%d/bfsroot=%d/%s/b=%d", fam.name, n, root, pat.name, bw)
						checkCase(t, name, g, root, bw, pat.cnt)
					}
				}
			}
		}
	}
}

func checkCase(t *testing.T, name string, g *graph.Graph, root, bw int, pattern func(t *Tree, b int) []int) {
	ref, ch := newNet(t, g, bw), newNet(t, g, bw)
	refTree, err := BuildBFS(ref, root)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(ch, root)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N
	counts := pattern(tree, bw)
	perNode := make([][]Item, n)
	cnt := make([]int32, n)
	var flat []Item
	vec := make([][]int64, n)
	below := 0
	for v := 0; v < n; v++ {
		for j := 0; j < counts[v]; j++ {
			perNode[v] = append(perNode[v], Item{A: int64(v), B: int64(j % 2), C: int64(n - j)})
		}
		cnt[v] = int32(len(perNode[v]))
		flat = append(flat, perNode[v]...)
		if v != root {
			below += len(perNode[v])
		}
		for mu := 0; mu < v%4+counts[v]%3; mu++ {
			vec[v] = append(vec[v], int64(v*7-mu))
		}
	}
	sorted := slices.Clone(flat)
	sortItems(sorted)

	refGather := func() ([]Item, []int64, error) {
		got, err := gatherRef(ref, refTree, perNode)
		return got, nil, err
	}
	refAllToAll := func() ([]Item, []int64, error) {
		up, err := gatherRef(ref, refTree, perNode)
		if err != nil {
			return nil, nil, err
		}
		up = slices.Clone(up)
		return up, nil, floodRef(ref, refTree, up)
	}
	refFlood := func() ([]Item, []int64, error) { return sorted, nil, floodRef(ref, refTree, flat) }
	m := 0
	for _, row := range vec {
		m = max(m, len(row))
	}
	refSum := func() ([]Item, []int64, error) {
		if m == 0 {
			return nil, nil, nil
		}
		sums, err := sumRef(ref, refTree, vec, m)
		return nil, sums, err
	}

	calls := []struct {
		op       string
		ref, got func() ([]Item, []int64, error)
		noResult bool
	}{
		{"Gather", refGather, func() ([]Item, []int64, error) {
			got, err := Gather(ch, tree, perNode)
			return got, nil, err
		}, false},
		{"Broadcast", refFlood, func() ([]Item, []int64, error) {
			got, err := Broadcast(ch, tree, flat)
			return got, nil, err
		}, false},
		{"BroadcastCount", refFlood, func() ([]Item, []int64, error) {
			return nil, nil, BroadcastCount(ch, tree, len(flat))
		}, true},
		{"AllToAll", refAllToAll, func() ([]Item, []int64, error) {
			got, err := AllToAll(ch, tree, perNode)
			return got, nil, err
		}, false},
		{"AllToAllCount", refAllToAll, func() ([]Item, []int64, error) {
			return nil, nil, AllToAllCount(ch, tree, cnt)
		}, true},
		{"GatherSum", refSum, func() ([]Item, []int64, error) {
			sums, err := GatherSum(ch, tree, vec, nil)
			return nil, sums, err
		}, false},
	}
	mid := observe(ref, -1, refGather).stats.Rounds / 2
	for _, c := range calls {
		for _, cancelAt := range []int{-1, 2, mid} {
			want, got := observe(ref, cancelAt, c.ref), observe(ch, cancelAt, c.got)
			if c.noResult || want.err != "" {
				want.items, want.sums = nil, nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s canceled after round %d: charged %+v\nreference %+v", name, c.op, cancelAt, got, want)
			}
			if c.op == "Gather" && cancelAt < 0 {
				if limit := max(1, tree.Height+(below+bw-1)/bw); want.stats.Rounds > limit {
					t.Fatalf("%s: gather took %d rounds, above Height + ceil(K/b) = %d", name, want.stats.Rounds, limit)
				}
			}
		}
	}
}
