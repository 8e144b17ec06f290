package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/core"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
)

// TestParallelDeterminism is the engine's bit-identical-execution property
// test: for random graphs (directed and undirected, several densities),
// running Bellman-Ford and the broadcast primitives with Parallel on and
// off must produce identical congest.Stats, identical final distance
// vectors, and identical gathered item streams. This pins the contract the
// sharded delivery path promises: per-shard accumulators merged at round
// end are indistinguishable from sequential execution.
func TestParallelDeterminism(t *testing.T) {
	type scenario struct {
		n        int
		extra    int // edges beyond the connecting spine
		directed bool
		seed     int64
	}
	var cases []scenario
	for _, n := range []int{24, 61, 128} {
		for _, density := range []int{1, 4, 10} {
			for _, directed := range []bool{false, true} {
				cases = append(cases, scenario{n: n, extra: density * n, directed: directed, seed: int64(7*n + density)})
			}
		}
	}
	for _, sc := range cases {
		sc := sc
		name := fmt.Sprintf("n=%d/m=%d/directed=%v", sc.n, sc.extra, sc.directed)
		t.Run(name, func(t *testing.T) {
			g := graph.RandomConnected(graph.GenConfig{
				N: sc.n, Directed: sc.directed, Seed: sc.seed, MaxWeight: 40,
			}, sc.extra)
			h := sc.n/4 + 2

			type outcome struct {
				stats congest.Stats
				dist  []int64
				hops  []int
				items []broadcast.Item
			}
			run := func(parallel bool) outcome {
				nw, err := congest.NewNetwork(g, 2)
				if err != nil {
					t.Fatal(err)
				}
				nw.Parallel = parallel
				nw.MinShardNodes = 1 // force in-round sharding below the adaptive threshold
				res, err := bford.Run(nw, g, int(sc.seed)%sc.n, h, bford.Out)
				if err != nil {
					t.Fatal(err)
				}
				tree, err := broadcast.BuildBFS(nw, 0)
				if err != nil {
					t.Fatal(err)
				}
				perNode := make([][]broadcast.Item, sc.n)
				for v := 0; v < sc.n; v++ {
					perNode[v] = []broadcast.Item{{A: int64(v), B: res.Dist[v], C: int64(res.Hops[v])}}
				}
				all, err := broadcast.AllToAll(nw, tree, perNode)
				if err != nil {
					t.Fatal(err)
				}
				return outcome{stats: nw.Stats, dist: res.Dist, hops: res.Hops, items: all}
			}

			seq := run(false)
			par := run(true)

			if seq.stats.Rounds != par.stats.Rounds ||
				seq.stats.Messages != par.stats.Messages ||
				seq.stats.Words != par.stats.Words {
				t.Fatalf("stats diverge:\n  seq: rounds=%d msgs=%d words=%d\n  par: rounds=%d msgs=%d words=%d",
					seq.stats.Rounds, seq.stats.Messages, seq.stats.Words,
					par.stats.Rounds, par.stats.Messages, par.stats.Words)
			}
			for v := range seq.stats.WordsByNode {
				if seq.stats.WordsByNode[v] != par.stats.WordsByNode[v] {
					t.Fatalf("WordsByNode[%d]: seq %d, par %d", v, seq.stats.WordsByNode[v], par.stats.WordsByNode[v])
				}
			}
			for v := 0; v < sc.n; v++ {
				if seq.dist[v] != par.dist[v] || seq.hops[v] != par.hops[v] {
					t.Fatalf("node %d: seq (dist=%d hops=%d), par (dist=%d hops=%d)",
						v, seq.dist[v], seq.hops[v], par.dist[v], par.hops[v])
				}
			}
			if len(seq.items) != len(par.items) {
				t.Fatalf("gathered %d items sequentially, %d in parallel", len(seq.items), len(par.items))
			}
			for i := range seq.items {
				if seq.items[i] != par.items[i] {
					t.Fatalf("item %d: seq %+v, par %+v", i, seq.items[i], par.items[i])
				}
			}
		})
	}
}

// forceWorkers raises GOMAXPROCS to at least 4 for the duration of a test
// (returning the restore func), so the source-sharded path — which falls
// back to sequential execution at GOMAXPROCS 1 — is genuinely exercised
// even on single-core CI shards; -race then certifies the worker-clone
// ownership discipline regardless of the host.
func forceWorkers(t *testing.T) func() {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= 4 {
		return func() {}
	}
	runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(prev) }
}

// TestPipelineShardedDeterminism is the full-pipeline property test for the
// source-sharded execution layer: for every Algorithm profile and several
// random graph families, core.Run with Parallel on (per-source sub-runs of
// Steps 1/3/7 and the q-sink SSSPs sharded across worker clones, plus the
// engine's in-round sharding) must be bit-identical to the sequential
// schedule in Dist, LastHop, and every Stats field — rounds, messages,
// words, per-step decomposition, blocker stats, q-sink stats, and the
// max-node-congestion derived from the merged per-node word vectors. CI
// runs this under -race, which also certifies the worker-clone ownership
// discipline (matrix rows, per-source slots, the shared bford relaxation
// cache).
func TestPipelineShardedDeterminism(t *testing.T) {
	defer forceWorkers(t)()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-undir", graph.RandomConnected(graph.GenConfig{N: 30, Seed: 3, MaxWeight: 30}, 90)},
		{"random-dir", graph.RandomConnected(graph.GenConfig{N: 28, Directed: true, Seed: 4, MaxWeight: 30}, 110)},
		{"star", graph.Star(graph.GenConfig{N: 26, Seed: 5, MaxWeight: 15})},
		{"zeromix", graph.ZeroWeightMix(graph.GenConfig{N: 24, Seed: 6, MaxWeight: 9}, 70)},
	}
	variants := []core.Variant{core.Det43, core.Det32, core.Rand43, core.BroadcastStep6}
	for _, gc := range graphs {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%v", gc.name, v), func(t *testing.T) {
				run := func(parallel bool, minShard int) *core.Result {
					res, err := core.Run(gc.g, core.Options{Variant: v, Seed: 11, Parallel: parallel, MinShardNodes: minShard})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				seq := run(false, 0)
				// Source-sharded only (small graphs stay below the in-round
				// threshold), then with in-round sharding forced for every
				// round, so -race also covers every protocol family under
				// the engine's intra-round worker pool.
				for _, par := range []*core.Result{run(true, 0), run(true, 1)} {
					if !reflect.DeepEqual(seq.Stats, par.Stats) {
						t.Fatalf("stats diverge:\n  seq: %+v\n  par: %+v", seq.Stats, par.Stats)
					}
					if !reflect.DeepEqual(seq.Dist, par.Dist) {
						t.Fatal("distance matrices diverge")
					}
					if !reflect.DeepEqual(seq.LastHop, par.LastHop) {
						t.Fatal("last-hop matrices diverge")
					}
				}
			})
		}
	}
}

// TestWorkStealingDeterminism is the scheduler-determinism property the
// work-stealing dispatcher promises: across permuted worker counts (every
// GOMAXPROCS in {2, 3, 4, 7} gives a different steal interleaving on a
// skewed power-law workload), the merged Stats, the distance matrix and
// the per-stage round decomposition must be bit-identical to the
// sequential schedule — integer stat sums commute, and each sub-run
// executes on exactly one deterministic engine. CI runs this under -race,
// which also certifies the atomic dispatch counter and the clone
// ownership discipline under genuine contention.
func TestWorkStealingDeterminism(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 48, Seed: 9, MaxWeight: 25}, 3)
	run := func() *core.Result {
		res, err := core.Run(g, core.Options{Variant: core.Det43, Parallel: runtime.GOMAXPROCS(0) > 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	seq := run()
	for _, workers := range []int{2, 3, 4, 7} {
		runtime.GOMAXPROCS(workers)
		par := run()
		if !reflect.DeepEqual(seq.Stats, par.Stats) {
			t.Fatalf("workers=%d: stats diverge:\n  seq: %+v\n  par: %+v", workers, seq.Stats, par.Stats)
		}
		if !reflect.DeepEqual(seq.Dist, par.Dist) {
			t.Fatalf("workers=%d: distance matrices diverge", workers)
		}
		if len(seq.Stages) != len(par.Stages) {
			t.Fatalf("workers=%d: stage count diverges", workers)
		}
		for i := range seq.Stages {
			if seq.Stages[i].Name != par.Stages[i].Name || seq.Stages[i].Rounds != par.Stages[i].Rounds {
				t.Fatalf("workers=%d: stage %q rounds %d, seq %q %d", workers,
					par.Stages[i].Name, par.Stages[i].Rounds, seq.Stages[i].Name, seq.Stages[i].Rounds)
			}
		}
	}
}

// TestPartialAPSPShardedDeterminism extends the property to partial runs:
// restricted (deduplicated) source sets must produce identical rows and
// stats under sharded and sequential execution, and non-source rows stay
// nil.
func TestPartialAPSPShardedDeterminism(t *testing.T) {
	defer forceWorkers(t)()
	g := graph.RandomConnected(graph.GenConfig{N: 30, Directed: true, Seed: 9, MaxWeight: 25}, 100)
	sources := []int{17, 3, 17, 8, 3} // duplicates must be dropped, not double-charged
	run := func(parallel bool) *core.Result {
		res, err := core.Run(g, core.Options{Variant: core.Det43, Sources: sources, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(false)
	par := run(true)
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Fatalf("stats diverge:\n  seq: %+v\n  par: %+v", seq.Stats, par.Stats)
	}
	if !reflect.DeepEqual(seq.Dist, par.Dist) {
		t.Fatal("distance rows diverge")
	}
	for x := 0; x < g.N; x++ {
		want := x == 17 || x == 3 || x == 8
		if got := seq.Dist[x] != nil; got != want {
			t.Fatalf("row %d presence = %v, want %v", x, got, want)
		}
	}
	// A deduplicated run must charge exactly what a pre-deduplicated one
	// does (the satellite bug: duplicates used to run Step 7 twice).
	clean, err := core.Run(g, core.Options{Variant: core.Det43, Sources: []int{17, 3, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Rounds != seq.Stats.Rounds || clean.Stats.Words != seq.Stats.Words {
		t.Fatalf("duplicate sources changed the charge: rounds %d vs %d, words %d vs %d",
			seq.Stats.Rounds, clean.Stats.Rounds, seq.Stats.Words, clean.Stats.Words)
	}
}

// TestQSinkInRoundParallelDeterminism pins the engine's in-round sharded
// execution of the q-sink delivery protocols, forced below the adaptive
// MinShardNodes threshold (full pipelines at small n no longer shard
// individual rounds, so without forcing, this protocol family would lose
// its -race coverage — it is the one whose global undelivered-message
// counter had to become atomic).
func TestQSinkInRoundParallelDeterminism(t *testing.T) {
	defer forceWorkers(t)()
	g := graph.RandomConnected(graph.GenConfig{N: 36, Seed: 31, MaxWeight: 9}, 120)
	var Q []int
	for v := 0; v < g.N; v += 3 {
		Q = append(Q, v)
	}
	delta := graph.BlockerDelta(g, Q)
	for _, sch := range []qsink.Scheduler{qsink.RoundRobin, qsink.Frames, qsink.BroadcastAll} {
		t.Run(sch.String(), func(t *testing.T) {
			run := func(parallel bool) (*qsink.Result, congest.Stats) {
				nw, err := congest.NewNetwork(g, 1)
				if err != nil {
					t.Fatal(err)
				}
				nw.Parallel = parallel
				nw.MinShardNodes = 1
				res, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: sch})
				if err != nil {
					t.Fatal(err)
				}
				return res, nw.Stats
			}
			seqRes, seqStats := run(false)
			parRes, parStats := run(true)
			if !reflect.DeepEqual(seqStats, parStats) {
				t.Fatalf("network stats diverge:\n  seq: %+v\n  par: %+v", seqStats, parStats)
			}
			if !reflect.DeepEqual(seqRes.Stats, parRes.Stats) {
				t.Fatalf("qsink stats diverge:\n  seq: %+v\n  par: %+v", seqRes.Stats, parRes.Stats)
			}
			if !reflect.DeepEqual(seqRes.AtBlocker, parRes.AtBlocker) {
				t.Fatal("AtBlocker matrices diverge")
			}
		})
	}
}
