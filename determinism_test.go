package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/core"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
)

// TestParallelDeterminism is the generated-input property test of source
// sharding at the primitive level: over random graphs (directed and
// undirected, three densities, n up to 128), csssp.Build from every
// source, one Bellman-Ford sub-run per source dispatched through
// congest.ShardRuns, must give an identical collection and identical
// congest.Stats with Parallel on and off.
func TestParallelDeterminism(t *testing.T) {
	defer forceWorkers(t)()
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
		name := fmt.Sprintf("n=%d/m=%d/directed=%v", sc.n, sc.extra, sc.directed)
		t.Run(name, func(t *testing.T) {
			g := graph.RandomConnected(graph.GenConfig{
				N: sc.n, Directed: sc.directed, Seed: sc.seed, MaxWeight: 40,
			}, sc.extra)
			sources := make([]int, sc.n)
			for v := range sources {
				sources[v] = v
			}
			run := func(parallel bool) (*csssp.Collection, congest.Stats) {
				nw, err := congest.NewNetwork(g, 2)
				if err != nil {
					t.Fatal(err)
				}
				nw.Parallel = parallel
				c, err := csssp.Build(nw, g, sources, sc.n/4+2, bford.Out)
				if err != nil {
					t.Fatal(err)
				}
				return c, nw.Stats
			}
			seq, seqStats := run(false)
			par, parStats := run(true)
			if !reflect.DeepEqual(seqStats, parStats) {
				t.Fatalf("stats diverge:\n  seq: %+v\n  par: %+v", seqStats, parStats)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatal("collections diverge")
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
// random graph families, a core run with Parallel on (per-source sub-runs of
// Steps 1/3/7, the q-sink SSSPs and the per-tree blocker runs sharded
// across worker clones) must be bit-identical to the sequential schedule in Dist, LastHop, and every Stats field — rounds, messages,
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
				run := func(parallel bool) *core.Result {
					res, err := coreRun(gc.g, core.Options{Variant: v, Seed: 11, Parallel: parallel})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				seq, par := run(false), run(true)
				if !reflect.DeepEqual(seq.Stats, par.Stats) {
					t.Fatalf("stats diverge:\n  seq: %+v\n  par: %+v", seq.Stats, par.Stats)
				}
				if !reflect.DeepEqual(seq.Dist, par.Dist) {
					t.Fatal("distance matrices diverge")
				}
				if !reflect.DeepEqual(seq.LastHop, par.LastHop) {
					t.Fatal("last-hop matrices diverge")
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
		res, err := coreRun(g, core.Options{Variant: core.Det43, Parallel: runtime.GOMAXPROCS(0) > 1})
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

// TestQSinkParallelDeterminism pins q-sink under Parallel for each
// scheduler: the network stats, q-sink stats and AtBlocker matrix must
// equal the sequential run's. Under the round-robin and frame schedulers
// the in-CSSSP collection for Q, Case 1's blocker runs and the paired
// SSSPs are source-sharded across worker clones.
func TestQSinkParallelDeterminism(t *testing.T) {
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
