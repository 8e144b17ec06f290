package qsink

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// pipelineFamilies are the generated graphs of the differential test:
// rings, stars, paths, random graphs and disjoint paths. A family that
// cannot build n nodes returns nil.
var pipelineFamilies = []struct {
	name  string
	build func(n int, directed bool) *graph.Graph
}{
	{"ring", func(n int, directed bool) *graph.Graph {
		return graph.Ring(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 5})
	}},
	{"star", func(n int, directed bool) *graph.Graph {
		return graph.Star(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 5})
	}},
	{"path", func(n int, directed bool) *graph.Graph {
		g := graph.New(n, directed)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, int64(1+v%3))
			if directed {
				g.MustAddEdge(v+1, v, int64(1+v%2))
			}
		}
		return g
	}},
	{"random", func(n int, directed bool) *graph.Graph {
		return graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: int64(3 * n), MaxWeight: 5}, 2*n)
	}},
	{"disjoint", func(n int, directed bool) *graph.Graph {
		if n%4 != 0 {
			return nil
		}
		return graph.DisjointPaths(4, n/4-1, 50, graph.GenConfig{Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
}

// pipelineInput is what one pipeline reads: the blockers, their Step-5
// values, the in-CSSSP collection runCase2 routes on (pruned of the
// bottleneck set when one was forced) and the blocker values before the
// pipeline.
type pipelineInput struct {
	g     *graph.Graph
	Q     []int
	delta *mat.Matrix
	cq    *csssp.Collection
	B     int // bottlenecks pruned
	at    *mat.Matrix
}

// newPipelineInput builds the pipeline's input on g as Run and runCase2
// build it, with every third node (and the last) a blocker, at hop bound
// h2 = ceil(n^(2/3)). With mult > 0 it prunes the collection of the
// bottleneck set computeBottlenecks finds at that congestion multiplier.
// The blocker values before the pipeline are the blockers' own, plus, for
// a third of the pairs, a candidate above delta and, for another third,
// one below it, as Case 1 and the bottleneck recovery leave them.
func newPipelineInput(t *testing.T, g *graph.Graph, mult float64) *pipelineInput {
	n := g.N
	var Q []int
	for v := 0; v < n; v += 3 {
		Q = append(Q, v)
	}
	if Q[len(Q)-1] != n-1 {
		Q = append(Q, n-1)
	}
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &pipelineInput{g: g, Q: Q, delta: graph.BlockerDelta(g, Q)}
	h2 := int(math.Ceil(math.Pow(float64(n), 2.0/3)))
	if in.cq, err = csssp.Build(nw, g, Q, h2, bford.In); err != nil {
		t.Fatal(err)
	}
	if mult > 0 {
		tree, err := broadcast.BuildBFS(nw, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(mult * float64(n) * math.Sqrt(float64(len(Q))))
		B, _, _, err := computeBottlenecks(nw, in.cq, tree, bound)
		if err != nil {
			t.Fatal(err)
		}
		inZ := make([]bool, n)
		for _, b := range B {
			inZ[b] = true
		}
		if err := in.cq.RemoveSubtrees(nw, nil, inZ, false); err != nil {
			t.Fatal(err)
		}
		in.B = len(B)
	}
	in.at = mat.NewFilled(len(Q), n, graph.Inf)
	for ci, c := range Q {
		for x := 0; x < n; x++ {
			d := in.delta.At(x, ci)
			switch {
			case x == c:
				in.at.Set(ci, x, d)
			case d < graph.Inf && (ci+x)%3 == 1:
				in.at.Set(ci, x, d+1)
			case d < graph.Inf && d > 0 && (ci+x)%3 == 2:
				in.at.Set(ci, x, d-1)
			}
		}
	}
	return in
}

// pipelineRun is what one pipeline leaves behind on a network with fresh
// Stats: the Stats, the (round sequence, delivered) pairs OnRound saw, the
// error, the pipeline's Stats fields and, when it succeeded, the blocker
// values.
type pipelineRun struct {
	stats  congest.Stats
	stream [][2]int
	err    string
	st     Stats
	at     [][]int64
}

// observePipeline runs call on nw into a copy of in's blocker values. With
// cancelAt >= 0 a context armed on nw is canceled from OnRound after round
// cancelAt, so a longer run stops at the top of the next round.
func observePipeline(nw *congest.Network, in *pipelineInput, cancelAt int, call func(at *mat.Matrix, st *Stats) error) pipelineRun {
	nw.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt >= 0 {
		nw.SetContext(ctx)
	}
	o := pipelineRun{stream: [][2]int{}}
	nw.OnRound = func(seq, delivered int) {
		o.stream = append(o.stream, [2]int{seq, delivered})
		if seq == cancelAt {
			cancel()
		}
	}
	at := mat.New(in.at.Rows(), in.at.Cols())
	for ci := 0; ci < at.Rows(); ci++ {
		copy(at.Row(ci), in.at.Row(ci))
	}
	err := call(at, &o.st)
	nw.OnRound = nil
	nw.SetContext(nil)
	if err != nil {
		o.err = err.Error()
	} else {
		for ci := 0; ci < at.Rows(); ci++ {
			o.at = append(o.at, slices.Clone(at.Row(ci)))
		}
	}
	o.stats = nw.Stats
	o.stats.WordsByNode = slices.Clone(nw.Stats.WordsByNode)
	return o
}

// pipelineCoverage counts the runs that reached what the differential
// test must reach.
type pipelineCoverage struct {
	pruned, multiStage, wideMask, robinCanceled, framesCanceled, robinOverrun, framesOverrun int
}

// TestPipelineChargeMatchesReference is the differential test of the host
// pipeline. Over generated rings, stars, paths, random graphs and disjoint
// paths, directed and undirected, n from 2 to 64 (and one ring whose
// blockers need two mask words), bandwidths 1-3, with and without a
// forced bottleneck set pruned from the trees, the round robin and the
// frame scheduler (at quota scale 1 and at one small enough to force
// several stages) must leave the same Stats, WordsByNode, OnRound stream,
// error, blocker values, PipelineRounds, FrameStages and FrameQviMax as
// the reference protocols on the engine. Each pipeline also runs canceled
// after round 2 and in the middle of its rounds, and within budgets it
// overruns.
func TestPipelineChargeMatchesReference(t *testing.T) {
	sizes := []int{2, 3, 7, 16, 41, 64}
	if testing.Short() {
		sizes = []int{2, 3, 7, 16}
	}
	var cov pipelineCoverage
	check := func(name string, g *graph.Graph) {
		for _, mult := range []float64{0, 0.05} {
			in := newPipelineInput(t, g, mult)
			if in.B > 0 {
				cov.pruned++
			}
			if len(in.Q) > 64 {
				cov.wideMask++
			}
			for bw := 1; bw <= 3; bw++ {
				checkPipelineCase(t, fmt.Sprintf("%s/mult=%v/b=%d", name, mult, bw), in, bw, &cov)
			}
		}
	}
	for _, fam := range pipelineFamilies {
		for _, directed := range []bool{false, true} {
			for _, n := range sizes {
				if g := fam.build(n, directed); g != nil {
					check(fmt.Sprintf("%s/directed=%v/n=%d", fam.name, directed, n), g)
				}
			}
		}
	}
	if !testing.Short() {
		check("ring/directed=false/n=200", graph.Ring(graph.GenConfig{N: 200, Seed: 1, MaxWeight: 5}))
	}
	if cov.pruned == 0 || cov.multiStage == 0 || cov.robinCanceled == 0 || cov.framesCanceled == 0 ||
		cov.robinOverrun == 0 || cov.framesOverrun == 0 || (!testing.Short() && cov.wideMask == 0) {
		t.Errorf("coverage %+v: want pruned trees, several frame stages, two mask words, and cancels and overruns in both schedulers", cov)
	}
}

// checkPipelineCase compares the host pipeline with the reference on in at
// bandwidth bw for both schedulers, every cancel point and the overrun
// budgets, and adds what the runs reached to cov.
func checkPipelineCase(t *testing.T, name string, in *pipelineInput, bw int, cov *pipelineCoverage) {
	net := func() *congest.Network {
		nw, err := congest.NewNetwork(in.g, bw)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	host, ref := net(), net()
	for _, par := range []Params{
		{Scheduler: RoundRobin},
		{Scheduler: Frames},
		{Scheduler: Frames, FrameQuotaScale: 0.01},
	} {
		frames := par.Scheduler == Frames
		label := fmt.Sprintf("%s/%v/scale=%v", name, par.Scheduler, par.FrameQuotaScale)
		compare := func(what string, cancelAt int, hostCall, refCall func(at *mat.Matrix, st *Stats) error) pipelineRun {
			want := observePipeline(ref, in, cancelAt, refCall)
			got := observePipeline(host, in, cancelAt, hostCall)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: host run differs from the reference\n  host: %+v\n  ref:  %+v", label, what, got, want)
			}
			return got
		}
		full := compare("complete", -1, func(at *mat.Matrix, st *Stats) error {
			return runPipeline(host, in.cq, in.Q, in.delta, at, st, par)
		}, func(at *mat.Matrix, st *Stats) error {
			return pipelineRef(ref, in.cq, in.Q, in.delta, at, st, par)
		})
		if full.err != "" {
			t.Fatalf("%s: %s", label, full.err)
		}
		if full.st.FrameStages > 1 {
			cov.multiStage++
		}
		rounds := full.st.PipelineRounds
		for _, at := range []int{2, rounds / 2} {
			o := compare(fmt.Sprintf("canceled after round %d", at), at, func(at *mat.Matrix, st *Stats) error {
				return runPipeline(host, in.cq, in.Q, in.delta, at, st, par)
			}, func(at *mat.Matrix, st *Stats) error {
				return pipelineRef(ref, in.cq, in.Q, in.delta, at, st, par)
			})
			if o.err != "" && frames {
				cov.framesCanceled++
			} else if o.err != "" {
				cov.robinCanceled++
			}
		}
		// Budgets the run overruns: the host schedule against the reference
		// scheduler on the same seeds.
		for _, budget := range []int{1, rounds / 2, rounds - 1} {
			if budget < 1 {
				continue
			}
			o := compare(fmt.Sprintf("within %d rounds", budget), -1, func(at *mat.Matrix, st *Stats) error {
				s := newPipeSched(host, in.cq, in.Q, in.delta, at)
				if frames {
					return s.runFrames(st, par, budget)
				}
				return s.runRoundRobin(st, budget)
			}, func(at *mat.Matrix, st *Stats) error {
				ps := newPipeState(ref, in.cq, in.Q, in.delta, at)
				if frames {
					return framesRef(ps, st, par, budget)
				}
				return robinRef(ps, st, budget)
			})
			if o.err != "" && frames {
				cov.framesOverrun++
			} else if o.err != "" {
				cov.robinOverrun++
			}
		}
	}
}
