package blocker

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
)

// observed is what one call leaves behind on a network with fresh Stats:
// the Stats, the (round sequence, delivered) pairs OnRound saw, and the
// error.
type observed struct {
	stats  congest.Stats
	stream [][2]int
	err    string
}

// observe runs call on nw. With cancelAt >= 0 a context armed on nw is
// canceled from OnRound after round cancelAt, so a longer run stops there.
func observe(nw *congest.Network, cancelAt int, call func() error) observed {
	nw.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt >= 0 {
		nw.SetContext(ctx)
	}
	o := observed{stream: [][2]int{}}
	nw.OnRound = func(seq, delivered int) {
		o.stream = append(o.stream, [2]int{seq, delivered})
		if seq == cancelAt {
			cancel()
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

// TestTreeChargeMatchesReference is the differential test of the charged
// per-tree protocols of this package. Over generated rings, stars, paths
// and random graphs, directed and undirected, with n from 2 to 64 and
// bandwidths 1-3, built sequentially and source-sharded, and over the
// removal states reached by RemoveSubtrees with nested members in Z, a
// root in Z, excludeRoots both ways and then generated commits, every call
// shape must leave the same Stats, WordsByNode, OnRound stream and error
// as its reference protocol on the engine: the set cover's Ancestors pass,
// Compute-Pij and both upcasts, charged from the kept walk's histogram
// with their counted words added in, and the random-sample baseline's
// computePijDowncastInto. Their outputs must be what checkCall compares
// (the Parent chains, the kept betas of V_i = the multiples of 3, the
// alive leaves and P_ij with at least two V_i nodes per path) and, for
// computePijDowncastInto, the reference betas at the tree's nodes. Each
// call also runs canceled after round 1 and after round 2, where the
// outputs must equal what the reference nodes hold when it stops.
func TestTreeChargeMatchesReference(t *testing.T) {
	families := []struct {
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
	for _, fam := range families {
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
	net := func() *congest.Network {
		nw, err := congest.NewNetwork(g, bw)
		if err != nil {
			t.Fatal(err)
		}
		nw.Parallel = parallel
		return nw
	}
	ch, ref := net(), net()
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err := csssp.Build(ch, g, srcs, min(n, 5), bford.Out)
	if err != nil {
		t.Fatal(err)
	}
	st := newState()
	beta, wantBeta := make([]int64, n), make([]int64, n)
	var fresh csssp.TreeWalk
	check := func(state int) {
		// A fresh state on this removal state: V_i is the multiples of 3,
		// P_ij the alive paths with at least two of them.
		st.reinit(ch, coll, Params{})
		for i := range coll.Sources {
			coll.Walk(st.walks.Tree(i), i)
		}
		for v := 0; v < n; v += 3 {
			st.setVi(v, true)
		}
		st.setBound(min(2, st.h+1))
		for i := range coll.Sources {
			for _, call := range []treeCall{callAncestors, callPij, callScore, callScoreij} {
				for _, cancelAt := range []int{-1, 1, 2} {
					got := observe(ch, cancelAt, func() error {
						var err error
						if call == callAncestors {
							err = st.ancestorsOne(ch, i)
						} else {
							err = st.chargeTree(ch, i, call)
						}
						st.flushWords(ch, i)
						return err
					})
					exp := observe(ref, cancelAt, func() error {
						ref.Scratch().Reset()
						if err := st.checkCall(ref, i, call); err != nil {
							return fmt.Errorf("blocker: %s tree %d: %w", callName[call], i, err)
						}
						return nil
					})
					if !reflect.DeepEqual(got, exp) {
						t.Fatalf("%s: removal state %d: %s tree %d canceled after round %d: charged %+v\nreference %+v", name, state, callOp[call], i, cancelAt, got, exp)
					}
				}
			}
			coll.Walk(&fresh, i)
			for _, cancelAt := range []int{-1, 1, 2} {
				clear(beta)
				clear(wantBeta)
				got := observe(ch, cancelAt, func() error { return computePijDowncastInto(ch, coll, i, &fresh, st.inVi, beta) })
				exp := observe(ref, cancelAt, func() error {
					err := pijRef(ref, coll, i, st.inVi, wantBeta)
					if err != nil {
						err = fmt.Errorf("blocker: compute-Pij tree %d: %w", i, err)
					}
					return err
				})
				if !reflect.DeepEqual(got, exp) || !slices.Equal(beta, wantBeta) {
					t.Fatalf("%s: removal state %d: computePijDowncastInto tree %d canceled after round %d: charged %+v %v\nreference %+v %v", name, state, i, cancelAt, got, beta, exp, wantBeta)
				}
			}
		}
	}
	check(0)
	type step struct {
		inZ          []bool
		excludeRoots bool
	}
	var steps []step
	for _, st := range []struct {
		inZ          func(v int) bool
		excludeRoots bool
	}{
		{func(v int) bool { return v == 0 || v%5 == 2 }, true},
		{func(v int) bool { return v == 1 || v%7 == 3 || v == n-1 }, false},
	} {
		inZ := make([]bool, n)
		for v := range inZ {
			inZ[v] = st.inZ(v)
		}
		steps = append(steps, step{inZ, st.excludeRoots})
	}
	// Then generated commits: one to three random nodes each, with
	// excludeRoots drawn at random.
	rng := rand.New(rand.NewSource(int64(n)))
	for range 3 {
		inZ := make([]bool, n)
		for j := rng.Intn(3); j >= 0; j-- {
			inZ[rng.Intn(n)] = true
		}
		steps = append(steps, step{inZ, rng.Intn(2) == 0})
	}
	for s, step := range steps {
		if err := coll.RemoveSubtrees(ch, nil, step.inZ, step.excludeRoots); err != nil {
			t.Fatal(err)
		}
		check(s + 1)
	}
}

// TestTreeChargeWarmAllocs: the charged per-tree protocols of this package
// are allocation-free on a warm Network, in -tags matcheck builds too (the
// csssp primitives are pinned by the root package's test of the same
// name).
func TestTreeChargeWarmAllocs(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 64, Directed: true, Seed: 64, MaxWeight: 50}, 4*64)
	coll, nw := buildColl(t, g, 4, bford.Out)
	n := g.N
	st := newState()
	st.reinit(nw, coll, Params{})
	for i := range coll.Sources {
		coll.Walk(st.walks.Tree(i), i)
	}
	for v := 0; v < n; v += 3 {
		st.setVi(v, true)
	}
	st.setBound(1)
	beta := make([]int64, n)
	var walk csssp.TreeWalk
	coll.Walk(&walk, 0)
	for name, call := range map[string]func() error{
		"ancestors":              func() error { return st.ancestorsOne(nw, 0) },
		"compute-pij":            func() error { return st.chargeTree(nw, 0, callPij) },
		"upcast":                 func() error { return st.chargeTree(nw, 0, callScoreij) },
		"flushWords":             func() error { st.flushWords(nw, 0); return nil },
		"computePijDowncastInto": func() error { return computePijDowncastInto(nw, coll, 0, &walk, st.inVi, beta) },
	} {
		if got := testing.AllocsPerRun(5, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s: %v allocs per warm call, want 0", name, got)
		}
	}
}
