package bford

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// runRef is runBF on the engine protocols of reference.go, with runBF's
// error wrapping.
func runRef(nw *congest.Network, g *graph.Graph, init []int64, hops int, mode Mode, confirm bool) (*Result, error) {
	rs, ra, err := prepare(nw, g, init, mode)
	if err != nil {
		return nil, err
	}
	if err := rs.relaxRef(nw, ra, hops); err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP: %w", mode, err)
	}
	if !confirm {
		return &rs.res, nil
	}
	if err := rs.waveRef(nw, ra, hops); err != nil {
		return nil, fmt.Errorf("bford: %s-SSSP confirmation wave: %w", mode, err)
	}
	return &rs.res, nil
}

// runRefFrom is Run (confirm) or RunLabels on the reference protocols.
func runRefFrom(nw *congest.Network, g *graph.Graph, root, hops int, mode Mode, confirm bool) (*Result, error) {
	nw.Scratch().Reset()
	init := nw.Scratch().Int64sFilled(g.N, graph.Inf)
	init[root] = 0
	res, err := runRef(nw, g, init, hops, mode, confirm)
	if err != nil {
		return nil, err
	}
	res.Root = root
	return res, nil
}

// observed is what one run leaves behind on a network with fresh Stats:
// the Stats, the (round sequence, delivered) pairs OnRound saw, the error
// and a copy of the result.
type observed struct {
	stats  congest.Stats
	stream [][2]int
	err    string
	res    *Result
}

// observe runs call on nw. With cancelAt >= 0 a context armed on nw is
// canceled from OnRound after round cancelAt, so a longer run stops at
// the top of the next round.
func observe(nw *congest.Network, cancelAt int, call func() (*Result, error)) observed {
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
	res, err := call()
	nw.OnRound = nil
	nw.SetContext(nil)
	if err != nil {
		o.err = err.Error()
	}
	if res != nil {
		o.res = &Result{Root: res.Root, Mode: res.Mode, Dist: slices.Clone(res.Dist),
			Hops: slices.Clone(res.Hops), Parent: slices.Clone(res.Parent), Confirmed: slices.Clone(res.Confirmed)}
	}
	o.stats = nw.Stats
	o.stats.WordsByNode = slices.Clone(nw.Stats.WordsByNode)
	return o
}

// withBundles returns g with parallel edges added: a heavier twin of
// every third edge and a zero-weight twin of every fourth.
func withBundles(g *graph.Graph) *graph.Graph {
	out := graph.New(g.N, g.Directed)
	for i, e := range g.Edges() {
		out.MustAddEdge(e.U, e.V, e.W)
		if i%3 == 0 {
			out.MustAddEdge(e.U, e.V, e.W+2)
		}
		if i%4 == 1 {
			out.MustAddEdge(e.U, e.V, 0)
		}
	}
	return out
}

// bfordFamilies are the generated graphs of the differential test: rings,
// stars, paths and random graphs, directed and undirected, each with
// parallel and zero-weight edges. A family that cannot build n nodes
// returns nil.
var bfordFamilies = []struct {
	name  string
	build func(n int, directed bool) *graph.Graph
}{
	{"ring", func(n int, directed bool) *graph.Graph {
		if n < 2 {
			return nil
		}
		return graph.Ring(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"star", func(n int, directed bool) *graph.Graph {
		return graph.Star(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"path", func(n int, directed bool) *graph.Graph {
		g := graph.New(n, directed)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, int64(v%3))
		}
		return g
	}},
	{"random", func(n int, directed bool) *graph.Graph {
		return graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: int64(3 * n), MaxWeight: 3}, 2*n-2)
	}},
}

// multiSeed is a virtual-source init with three seeds: node 0 at offset
// 0, the middle node at 1, and the last node at an offset every path from
// node 0 undercuts, so that seed is improved whenever node 0 reaches it
// within the hop bound and the wave starts from fewer seeds than the init.
func multiSeed(n int) []int64 {
	init := make([]int64, n)
	for v := range init {
		init[v] = graph.Inf
	}
	init[n-1] = int64(4*n + 10)
	init[n/2] = 1
	init[0] = 0
	return init
}

// TestBfordChargeMatchesReference is the differential test of the host
// execution. Over generated rings, stars, paths and random graphs,
// directed and undirected, with parallel and zero-weight edges, n from 1
// to 64, hop bounds 0, 1, 2 and n-1, both modes and bandwidths 1-3, each
// entry point (Run, RunLabels, RunWithInit and RunLabelsWithInit, the
// *WithInit ones from a three-seed init and from none) must leave the same
// Stats, WordsByNode, OnRound stream, error and result as the reference
// protocols on the engine. Each run also runs canceled after relaxation
// rounds 1 and 2 and after wave rounds 1 and 2. Some init must have a
// seed improved, so the wave's seeds differ from the init's.
func TestBfordChargeMatchesReference(t *testing.T) {
	var cov coverage
	for _, fam := range bfordFamilies {
		for _, directed := range []bool{false, true} {
			for _, n := range []int{1, 2, 3, 7, 16, 41, 64} {
				base := fam.build(n, directed)
				if base == nil {
					continue
				}
				g := withBundles(base)
				for bw := 1; bw <= 3; bw++ {
					name := fmt.Sprintf("%s/directed=%v/n=%d/b=%d", fam.name, directed, n, bw)
					checkBfordCase(t, name, g, bw, &cov)
				}
			}
		}
	}
	if cov.improvedSeeds == 0 || cov.relaxCanceled == 0 || cov.waveCanceled == 0 {
		t.Errorf("coverage %+v: want a seed improved, and runs canceled in the relaxation and in the wave", cov)
	}
}

// coverage counts the runs that exercised what the differential test
// must reach: a completed seeded run that improved a seed, and runs
// canceled in each schedule.
type coverage struct {
	improvedSeeds, relaxCanceled, waveCanceled int
}

// checkBfordCase runs every entry point, hop bound, mode and cancel point
// on g and adds what the runs reached to cov.
func checkBfordCase(t *testing.T, name string, g *graph.Graph, bw int, cov *coverage) {
	n := g.N
	net := func() *congest.Network {
		nw, err := congest.NewNetwork(g, bw)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	host, ref := net(), net()
	root := n / 3
	// The *WithInit entry points run from the three-seed init and from an
	// init with no seed, which simulates no round at all; Run and
	// RunLabels (init nil here) run from root.
	noSeed := make([]int64, n)
	for v := range noSeed {
		noSeed[v] = graph.Inf
	}
	hostRun := func(nw *congest.Network, init []int64, confirm bool, hops int, mode Mode) (*Result, error) {
		switch {
		case init != nil && confirm:
			return RunWithInit(nw, g, init, hops, mode)
		case init != nil:
			return RunLabelsWithInit(nw, g, init, hops, mode)
		case confirm:
			return Run(nw, g, root, hops, mode)
		default:
			return RunLabels(nw, g, root, hops, mode)
		}
	}
	refRun := func(nw *congest.Network, init []int64, confirm bool, hops int, mode Mode) (*Result, error) {
		if init != nil {
			return runRef(nw, g, init, hops, mode, confirm)
		}
		return runRefFrom(nw, g, root, hops, mode, confirm)
	}
	for _, hops := range []int{0, 1, 2, n - 1} {
		for _, mode := range []Mode{Out, In} {
			for initKind, init := range [][]int64{nil, multiSeed(n), noSeed} {
				for _, confirm := range []bool{false, true} {
					call := func(nw *congest.Network, run func(*congest.Network, []int64, bool, int, Mode) (*Result, error), confirm bool) func() (*Result, error) {
						return func() (*Result, error) { return run(nw, init, confirm, hops, mode) }
					}
					full := observe(ref, -1, call(ref, refRun, confirm))
					cancels := []int{-1, 1, 2}
					if confirm {
						// The relaxation's rounds come first in the stream.
						relax := len(observe(ref, -1, call(ref, refRun, false)).stream)
						cancels = append(cancels, relax+1, relax+2)
					}
					for _, cancelAt := range cancels {
						got := observe(host, cancelAt, call(host, hostRun, confirm))
						exp := full
						if cancelAt >= 0 {
							exp = observe(ref, cancelAt, call(ref, refRun, confirm))
						}
						if !reflect.DeepEqual(got, exp) {
							t.Fatalf("%s: hops=%d mode=%v init=%d confirm=%v canceled after round %d:\nhost      %+v\nreference %+v",
								name, hops, mode, initKind, confirm, cancelAt, got, exp)
						}
						switch {
						case strings.Contains(got.err, "wave: context canceled"):
							cov.waveCanceled++
						case strings.Contains(got.err, "context canceled"):
							cov.relaxCanceled++
						}
					}
					if initKind == 1 && confirm && full.res.Hops[n-1] > 0 {
						cov.improvedSeeds++
					}
				}
			}
		}
	}
}
