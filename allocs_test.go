package bench

import (
	"context"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
	"congestapsp/internal/unweighted"
	"congestapsp/pkg/apsp"
)

// Steady-state allocation budgets (DESIGN.md §7). The pooled scratch
// subsystem promises that repeated protocol runs on a warm Network reuse
// their footprint; these tests pin that promise with testing.AllocsPerRun
// so an accidental make() in a protocol hot path fails loudly instead of
// showing up as a 100x allocs/op regression two benches later.
//
// AllocsPerRun performs one warm-up call before measuring, which is
// exactly the pooling contract: the first run on a fresh Network grows the
// arenas, every later run reuses them.

// TestBfordWarmNetworkAllocs: a warm-network h-hop SSSP re-run is
// allocation-free — result vectors, per-arc labels and both protocol
// objects are pooled, and the relaxation CSR is cached per (graph, mode).
func TestBfordWarmNetworkAllocs(t *testing.T) {
	g := benchGraph(64)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hopParam(64)
	for name, run := range map[string]func() error{
		"Run": func() error {
			_, err := bford.Run(nw, g, 3, h, bford.Out)
			return err
		},
		"RunLabels-in": func() error {
			_, err := bford.RunLabels(nw, g, 5, h, bford.In)
			return err
		},
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(5, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s: %v allocs per warm re-run, want 0", name, got)
		}
	}
}

// TestBroadcastWarmNetworkAllocs: the charged broadcast primitives are
// allocation-free on a warm Network. Their schedules, item counts and
// result buffers (the sorted union, the sorted copy, the sums) are pooled,
// and so, in -tags matcheck builds, are the guard's reference network and
// recording buffers.
func TestBroadcastWarmNetworkAllocs(t *testing.T) {
	g := benchGraph(64)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	perNode := make([][]broadcast.Item, g.N)
	cnt := make([]int32, g.N)
	vec := make([][]int64, g.N)
	for v := range perNode {
		for j := 0; j < v%3; j++ {
			perNode[v] = append(perNode[v], broadcast.Item{A: int64(v), B: int64(j)})
		}
		cnt[v] = int32(len(perNode[v]))
		vec[v] = []int64{int64(v), 1, int64(v % 5)}
	}
	items := perNode[g.N-1]
	var sums []int64
	for name, call := range map[string]func() error{
		"Gather": func() error {
			_, err := broadcast.Gather(nw, tree, perNode)
			return err
		},
		"Broadcast": func() error {
			_, err := broadcast.Broadcast(nw, tree, items)
			return err
		},
		"BroadcastCount": func() error { return broadcast.BroadcastCount(nw, tree, 1) },
		"AllToAll": func() error {
			_, err := broadcast.AllToAll(nw, tree, perNode)
			return err
		},
		"AllToAllCount": func() error { return broadcast.AllToAllCount(nw, tree, cnt) },
		"GatherSum": func() error {
			var err error
			sums, err = broadcast.GatherSum(nw, tree, vec, sums)
			return err
		},
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

// TestTreeChargeWarmAllocs: the charged per-tree primitives of csssp are
// allocation-free on a warm Network. Their send lists and per-round
// deliveries are pooled, and so, in -tags matcheck builds, are the guard's
// reference network and the reference protocols' state. Kept walks reuse
// their arenas, and RemoveSubtrees hands ShardRuns a sub-run bound once
// per network.
func TestTreeChargeWarmAllocs(t *testing.T) {
	g := benchGraph(64)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]int, g.N)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err := csssp.Build(nw, g, srcs, hopParam(g.N), bford.Out)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int64, g.N)
	for v := range init {
		init[v] = int64(v % 3)
	}
	acc := make([]int64, g.N)
	inZ := make([]bool, g.N)
	for v := range inZ {
		inZ[v] = v%9 == 4
	}
	var kept csssp.Walks
	walkAll := func() {
		kept.Reset(coll)
		for i := range coll.Sources {
			coll.Walk(kept.Tree(i), i)
		}
	}
	walkAll()
	for name, call := range map[string]func() error{
		"UpcastSumInto": func() error {
			for i := range coll.Sources {
				if err := coll.UpcastSumInto(nw, kept.Tree(i), i, init, acc); err != nil {
					return err
				}
			}
			return nil
		},
		"RemoveSubtrees": func() error {
			coll.ResetRemovals()
			return coll.RemoveSubtrees(nw, nil, inZ, true)
		},
		"RemoveSubtrees/kept": func() error {
			coll.ResetRemovals()
			walkAll()
			return coll.RemoveSubtrees(nw, &kept, inZ, true)
		},
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

// TestUnweightedWarmNetworkAllocs: the pipelined-BFS APSP re-run on a warm
// Network stays within a tiny constant budget (the forward-neighbor
// callback closures; every vector, queue and the distance matrix are
// pooled).
func TestUnweightedWarmNetworkAllocs(t *testing.T) {
	g := benchGraph(48)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := unweighted.Run(nw, g); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const budget = 8
	if got := testing.AllocsPerRun(3, run); got > budget {
		t.Errorf("unweighted.Run: %v allocs per warm re-run, budget %d", got, budget)
	}
}

// TestQSinkWarmNetworkAllocs: a warm-network q-sink re-run allocates O(1)
// with respect to the message volume. It cannot be literally zero — each
// run hands the caller a freshly built CSSSP collection and a result
// matrix — but the former O(n*|Q|) queue/spine churn is pooled, so the
// budget is a small constant independent of how many values the pipeline
// moves.
func TestQSinkWarmNetworkAllocs(t *testing.T) {
	n := 48
	g := benchGraph(n)
	var Q []int
	for v := 0; v < n; v += 3 {
		Q = append(Q, v)
	}
	delta := graph.BlockerDelta(g, Q)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: qsink.RoundRobin}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const budget = 256
	if got := testing.AllocsPerRun(3, run); got > budget {
		t.Errorf("qsink.Run: %v allocs per warm re-run, budget %d", got, budget)
	}
}

// TestRunnerWarmRunAllocs pins the warm-session budget of apsp.Runner: a
// second Run on the same Runner skips the network build and every arena
// cold start, so it must stay within a small ceiling dominated by the
// caller-owned result matrices (the cold n=128 run pays ~6.7k allocs; the
// warm re-run measures ~1k). A regression here means per-run state leaked
// out of the pooled subsystem. The ceiling holds with last hops too: step
// 8's host state is pooled, so they add only the LastHop matrix.
func TestRunnerWarmRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full n=128 pipeline runs")
	}
	g := apsp.RandomGraph(apsp.GenOptions{N: 128, Directed: true, Seed: 128, MaxWeight: 50}, 4*128)
	r, err := apsp.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []apsp.Options{{SkipLastHops: true}, {}} {
		if _, err := r.Run(opt); err != nil {
			t.Fatal(err)
		}
		const ceiling = 2500
		if got := testing.AllocsPerRun(2, func() {
			if _, err := r.Run(opt); err != nil {
				t.Fatal(err)
			}
		}); got > ceiling {
			t.Errorf("warm Runner.Run n=128, SkipLastHops=%v: %v allocs/op, ceiling %d", opt.SkipLastHops, got, ceiling)
		}
	}
}

// TestRunnerWarmRunContextAllocs pins the cancellation plumbing's promise
// of zero steady-state cost: a warm RunContext with an armed (cancelable)
// context must fit the SAME ceiling as the context-free warm run — the
// per-round ctx.Err() observation, the stage-boundary checks, and the
// panic-isolation defers may not allocate. The context itself is created
// outside the measured region, as a server would hold its request context.
func TestRunnerWarmRunContextAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full n=128 pipeline runs")
	}
	g := apsp.RandomGraph(apsp.GenOptions{N: 128, Directed: true, Seed: 128, MaxWeight: 50}, 4*128)
	r, err := apsp.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := apsp.Options{SkipLastHops: true}
	if _, err := r.RunContext(ctx, opt); err != nil {
		t.Fatal(err)
	}
	const ceiling = 2500
	if got := testing.AllocsPerRun(2, func() {
		if _, err := r.RunContext(ctx, opt); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("warm Runner.RunContext n=128: %v allocs/op, ceiling %d (ctx plumbing must be allocation-free)", got, ceiling)
	}
}

// TestPipelineAllocsCeiling guards the end-to-end allocs/op of the full
// APSP pipeline at n=128 (the BenchmarkAPSPPipeline configuration CI
// smokes). The pre-arena pipeline spent ~499k allocs here; the pooled
// steady state is ~7k, and the ceiling leaves room for noise while still
// failing loudly if a protocol layer regresses to per-run allocation.
func TestPipelineAllocsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full n=128 pipeline run")
	}
	g := apsp.RandomGraph(apsp.GenOptions{N: 128, Directed: true, Seed: 128, MaxWeight: 50}, 4*128)
	run := func() {
		if _, err := apsp.Run(g, apsp.Options{SkipLastHops: true}); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 50000
	if got := testing.AllocsPerRun(1, run); got > ceiling {
		t.Errorf("apsp.Run n=128: %v allocs/op, ceiling %d", got, ceiling)
	}
}
