// Package bench is the benchmark harness required by DESIGN.md: one
// testing.B benchmark per experiment table (E1-E8), each reporting the
// simulated CONGEST round counts as custom metrics ("rounds", "qsize",
// ...) alongside wall-clock time. `cmd/experiment -lemmas` prints the
// tables themselves as markdown; these benches pin the same quantities
// into `go test -bench`.
package bench

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/core"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
	"congestapsp/internal/unweighted"
	"congestapsp/pkg/apsp"
)

var benchSizes = []int{16, 24, 32}

// coreRun runs opt on a fresh core session for g.
func coreRun(g *graph.Graph, opt core.Options) (*core.Result, error) {
	s, err := core.NewSession(g)
	if err != nil {
		return nil, err
	}
	return s.Run(opt)
}

func benchGraph(n int) *graph.Graph {
	return graph.RandomConnected(graph.GenConfig{N: n, Directed: true, Seed: int64(n), MaxWeight: 50}, 4*n)
}

func hopParam(n int) int { return int(math.Ceil(math.Pow(float64(n), 1.0/3))) }

func buildColl(b testing.TB, g *graph.Graph, h int) (*csssp.Collection, *congest.Network) {
	b.Helper()
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]int, g.N)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err := csssp.Build(nw, g, srcs, h, bford.Out)
	if err != nil {
		b.Fatal(err)
	}
	return coll, nw
}

// BenchmarkTable1RoundComparison reproduces Table 1 empirically: full APSP
// round counts for the paper's algorithm and the baselines (experiment E1).
func BenchmarkTable1RoundComparison(b *testing.B) {
	variants := []struct {
		name string
		v    core.Variant
	}{
		{"det43-paper", core.Det43},
		{"det32-podc18", core.Det32},
		{"rand43", core.Rand43},
		{"broadcast-step6", core.BroadcastStep6},
	}
	for _, n := range benchSizes {
		g := benchGraph(n)
		for _, vt := range variants {
			b.Run(fmt.Sprintf("%s/n=%d", vt.name, n), func(b *testing.B) {
				var rounds, msgs float64
				for i := 0; i < b.N; i++ {
					res, err := coreRun(g, core.Options{Variant: vt.v, SkipLastEdges: true})
					if err != nil {
						b.Fatal(err)
					}
					rounds = float64(res.Stats.Rounds)
					msgs = float64(res.Stats.Messages)
				}
				b.ReportMetric(rounds, "rounds")
				b.ReportMetric(msgs, "messages")
			})
		}
	}
}

// BenchmarkStepDecomposition reports the rounds each round-charging stage
// of the paper's algorithm charges (E1b): Steps 1 and 7 carry the clean
// n^(4/3) exponent.
func BenchmarkStepDecomposition(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = coreRun(g, core.Options{Variant: core.Det43, SkipLastEdges: true}); err != nil {
					b.Fatal(err)
				}
			}
			for _, st := range res.Stages {
				if st.Rounds > 0 {
					b.ReportMetric(float64(st.Rounds), st.Name+"-rounds")
				}
			}
		})
	}
}

// BenchmarkBlockerSetSize is experiment E2 (Lemma 3.10): |Q| against the
// n*ln(n)/h bound for each construction.
func BenchmarkBlockerSetSize(b *testing.B) {
	modes := []struct {
		name string
		mode blocker.Mode
	}{
		{"deterministic", blocker.Deterministic},
		{"greedy", blocker.Greedy},
		{"sampled", blocker.RandomSample},
	}
	for _, n := range benchSizes {
		g := benchGraph(n)
		h := hopParam(n)
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(b *testing.B) {
				var size, rounds float64
				for i := 0; i < b.N; i++ {
					coll, nw := buildColl(b, g, h)
					res, err := blocker.Compute(nw, coll, blocker.Params{Mode: m.mode, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					size = float64(len(res.Q))
					rounds = float64(res.Stats.Rounds)
				}
				b.ReportMetric(size, "qsize")
				b.ReportMetric(rounds, "rounds")
				b.ReportMetric(float64(n)*math.Log(float64(n))/float64(h), "bound")
			})
		}
	}
}

// BenchmarkBlockerRounds is experiment E4 (Corollary 3.13): construction
// rounds of the derandomized set cover vs the greedy baseline, whose n*|Q|
// cleanup term the paper removes.
func BenchmarkBlockerRounds(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		h := hopParam(n)
		for _, m := range []struct {
			name string
			mode blocker.Mode
		}{{"setcover", blocker.Deterministic}, {"greedy", blocker.Greedy}} {
			b.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(b *testing.B) {
				var rounds, steps float64
				for i := 0; i < b.N; i++ {
					coll, nw := buildColl(b, g, h)
					res, err := blocker.Compute(nw, coll, blocker.Params{Mode: m.mode})
					if err != nil {
						b.Fatal(err)
					}
					rounds = float64(res.Stats.Rounds)
					steps = float64(res.Stats.SelectionSteps)
				}
				b.ReportMetric(rounds, "rounds")
				b.ReportMetric(steps, "selection-steps")
			})
		}
	}
}

// BenchmarkQSinkRounds is experiment E5 (Lemmas 4.1/4.5): the reversed
// q-sink delivery under each scheduler, including the trivial broadcast
// baseline whose O~(n^(5/3)) cost Section 4 beats.
func BenchmarkQSinkRounds(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		var Q []int
		for v := 0; v < n; v += 3 {
			Q = append(Q, v)
		}
		delta := graph.BlockerDelta(g, Q)
		for _, sch := range []qsink.Scheduler{qsink.RoundRobin, qsink.Frames, qsink.BroadcastAll} {
			b.Run(fmt.Sprintf("%v/n=%d", sch, n), func(b *testing.B) {
				var rounds, msgs float64
				for i := 0; i < b.N; i++ {
					nw, err := congest.NewNetwork(g, 1)
					if err != nil {
						b.Fatal(err)
					}
					res, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: sch})
					if err != nil {
						b.Fatal(err)
					}
					rounds = float64(res.Stats.RoundsTotal)
					msgs = float64(res.Stats.PipelineMessages)
				}
				b.ReportMetric(rounds, "rounds")
				b.ReportMetric(msgs, "pipeline-msgs")
			})
		}
	}
}

// BenchmarkBottleneck is experiment E6 (Lemmas A.15-A.17): bottleneck-node
// elimination on the hub-heavy star workload.
func BenchmarkBottleneck(b *testing.B) {
	for _, n := range benchSizes {
		g := graph.Star(graph.GenConfig{N: n, Seed: int64(n), MaxWeight: 20})
		var Q []int
		for v := 0; v < n; v += 4 {
			Q = append(Q, v)
		}
		delta := graph.BlockerDelta(g, Q)
		b.Run(fmt.Sprintf("star/n=%d", n), func(b *testing.B) {
			var bc, before, after float64
			for i := 0; i < b.N; i++ {
				nw, err := congest.NewNetwork(g, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: qsink.RoundRobin, CongestionMult: 0.05})
				if err != nil {
					b.Fatal(err)
				}
				bc = float64(res.Stats.BottleneckCount)
				before = float64(res.Stats.MaxLoadBefore)
				after = float64(res.Stats.MaxLoadAfter)
			}
			b.ReportMetric(bc, "bottlenecks")
			b.ReportMetric(before, "load-before")
			b.ReportMetric(after, "load-after")
		})
	}
}

// BenchmarkGoodSetDensity is experiment E7 (Lemma 3.8): the fraction of
// pairwise-independent sample points that form good sets, on the
// disjoint-paths workload that forces the good-set branch.
func BenchmarkGoodSetDensity(b *testing.B) {
	for _, k := range []int{16, 20} {
		g := graph.DisjointPaths(k, 3, 1000, graph.GenConfig{Seed: int64(k), MaxWeight: 4})
		b.Run(fmt.Sprintf("paths=%d", k), func(b *testing.B) {
			var frac, goodsets float64
			for i := 0; i < b.N; i++ {
				coll, nw := buildColl(b, g, 3)
				res, err := blocker.Compute(nw, coll, blocker.Params{
					Mode: blocker.Deterministic, Delta: 0.5, UseFullSpace: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.PointsScanned > 0 {
					frac = float64(res.Stats.GoodPoints) / float64(res.Stats.PointsScanned)
				}
				goodsets = float64(res.Stats.GoodSetSelections)
			}
			b.ReportMetric(frac, "good-fraction")
			b.ReportMetric(goodsets, "goodset-selections")
			b.ReportMetric(0.125, "lemma38-floor")
		})
	}
}

// BenchmarkFrameShrinkage is experiment E8 (Lemma 4.8): stages used by the
// frame scheduler and the shrinkage of max |Q_{v,i}|.
func BenchmarkFrameShrinkage(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		var Q []int
		for v := 0; v < n; v += 3 {
			Q = append(Q, v)
		}
		delta := graph.BlockerDelta(g, Q)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stages, first, last float64
			for i := 0; i < b.N; i++ {
				nw, err := congest.NewNetwork(g, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: qsink.Frames})
				if err != nil {
					b.Fatal(err)
				}
				stages = float64(res.Stats.FrameStages)
				if m := res.Stats.FrameQviMax; len(m) > 0 {
					first, last = float64(m[0]), float64(m[len(m)-1])
				}
			}
			b.ReportMetric(stages, "stages")
			b.ReportMetric(first, "qvi-stage0")
			b.ReportMetric(last, "qvi-final")
		})
	}
}

// --- Microbenchmarks of the substrates (wall-clock oriented) ---

// BenchmarkSimulatorRound measures the raw cost of one simulated CONGEST
// round across all nodes (idle protocol).
func BenchmarkSimulatorRound(b *testing.B) {
	g := benchGraph(64)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	idle := congest.ProtoFunc(func(v, round int, in []congest.Message, send func(congest.Message)) bool {
		return false
	})
	b.ResetTimer()
	if _, err := nw.Run(idle, b.N); err == nil {
		b.Fatal("idle protocol unexpectedly terminated")
	}
}

// BenchmarkDistributedBellmanFord measures one h-hop SSSP on the simulator.
func BenchmarkDistributedBellmanFord(b *testing.B) {
	for _, n := range []int{32, 64, 512} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := congest.NewNetwork(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := bford.Run(nw, g, i%n, hopParam(n), bford.Out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllToAll measures one charged all-to-all broadcast (Lemma A.2)
// over the BFS tree of a 256-node ring, one item per node, bandwidth 1: the
// closed-form gather and flood, including the host-side sort of the union.
func BenchmarkAllToAll(b *testing.B) {
	g := graph.Ring(graph.GenConfig{N: 256, Seed: 1, MaxWeight: 9})
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		b.Fatal(err)
	}
	perNode := make([][]broadcast.Item, g.N)
	for v := range perNode {
		perNode[v] = []broadcast.Item{{A: int64(v), B: int64(v % 7)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.AllToAll(nw, tree, perNode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeUpcast measures the charged Compute-Count convergecast as
// the blocker's score recomputation runs it: one UpcastSumInto per tree of
// the ring-n256 det43 collection (h = 7) over the tree's kept walk, each
// summing the tree's depth-h leaf indicators. One op is the pass over all
// 256 trees.
func BenchmarkTreeUpcast(b *testing.B) {
	g := graph.Ring(graph.GenConfig{N: 256, Seed: 1, MaxWeight: 50})
	coll, nw := buildColl(b, g, hopParam(g.N))
	n := g.N
	init := make([]int64, n*n)
	for i := range coll.Sources {
		for _, v := range coll.HLeaves(i) {
			init[i*n+int(v)] = 1
		}
	}
	counts := make([]int64, n*n)
	var kept csssp.Walks
	kept.Reset(coll)
	for i := range coll.Sources {
		coll.Walk(kept.Tree(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range coll.Sources {
			if err := coll.UpcastSumInto(nw, kept.Tree(i), i, init[i*n:(i+1)*n], counts[i*n:(i+1)*n]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBlockerCompute measures the deterministic blocker-set
// construction (Algorithm 2') as step 2 runs it on the ring-n256 det43
// collection (h = 7): the Ancestors pass that takes the kept walks, the
// selection steps with their per-tree downcasts and upcasts, Remove-Subtrees
// floods and all-to-alls. One op is ResetRemovals plus blocker.Compute on a
// warm network.
func BenchmarkBlockerCompute(b *testing.B) {
	g := graph.Ring(graph.GenConfig{N: 256, Seed: 1, MaxWeight: 50})
	coll, nw := buildColl(b, g, hopParam(g.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll.ResetRemovals()
		if _, err := blocker.Compute(nw, coll, blocker.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLastEdges measures step 8, the last-edge resolution, on a warm
// network over a precomputed distance matrix: the star-n512-s1 scenario
// graph, whose hub sends on all 511 links in every column round, and the
// random-n128 graph of BenchmarkAPSPPipeline. One op is one resolution,
// including the caller-owned LastHop matrix it returns.
func BenchmarkLastEdges(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star-n512", graph.Star(graph.GenConfig{N: 512, Seed: 1, MaxWeight: 50})},
		{"random-n128", benchGraph(128)},
	} {
		b.Run(c.name, func(b *testing.B) {
			nw, err := congest.NewNetwork(c.g, 1)
			if err != nil {
				b.Fatal(err)
			}
			dist := graph.FloydWarshall(c.g)
			if _, err := core.ResolveLastEdges(nw, dist); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ResolveLastEdges(nw, dist); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloydWarshallOracle calibrates the sequential oracle used in
// verification.
func BenchmarkFloydWarshallOracle(b *testing.B) {
	g := benchGraph(64)
	for i := 0; i < b.N; i++ {
		graph.FloydWarshall(g)
	}
}

// BenchmarkUnweightedAPSP is experiment E12: the O(n)-round unweighted
// baseline (pipelined BFS) that matches the Omega(n) lower bound of [6].
func BenchmarkUnweightedAPSP(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				nw, err := congest.NewNetwork(g, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := unweighted.Run(nw, g)
				if err != nil {
					b.Fatal(err)
				}
				rounds = float64(res.Rounds)
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(rounds/float64(n), "rounds-per-n")
		})
	}
}

// BenchmarkHSweep is experiment E10: the Theorem 1.1 balance between the
// O(n*h) steps and the blocker/q-sink machinery.
func BenchmarkHSweep(b *testing.B) {
	n := 32
	g := benchGraph(n)
	for _, h := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			var rounds, qsize float64
			for i := 0; i < b.N; i++ {
				res, err := coreRun(g, core.Options{Variant: core.Det43, H: h, SkipLastEdges: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds = float64(res.Stats.Rounds)
				qsize = float64(res.Stats.QSize)
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(qsize, "qsize")
		})
	}
}

// BenchmarkBandwidthSweep is experiment E11: latency-bound vs
// bandwidth-bound steps.
func BenchmarkBandwidthSweep(b *testing.B) {
	n := 32
	g := benchGraph(n)
	for _, bw := range []int{1, 4} {
		b.Run(fmt.Sprintf("B=%d", bw), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				res, err := coreRun(g, core.Options{Variant: core.Det43, Bandwidth: bw, SkipLastEdges: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds = float64(res.Stats.Rounds)
			}
			b.ReportMetric(rounds, "rounds")
		})
	}
}

// BenchmarkAPSPPipeline measures the full apsp.Run wall clock (and
// allocations) at production-leaning sizes, sequential vs source-sharded —
// the headline number of the sharded execution layer. scripts/bench.sh
// turns these into BENCH_apsp.json so the perf trajectory covers the whole
// pipeline, not just the engine. Every iteration is a cold start (network
// build + arena growth); BenchmarkAPSPPipelineWarm measures the same
// configuration on a warm apsp.Runner for the cold-vs-warm comparison. The
// seq-lasthops row, at n=128 only, adds the last-edge resolution (Step 8)
// that the other rows skip, so scripts/check_allocs.sh gates its
// allocations too.
func BenchmarkAPSPPipeline(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		g := apsp.RandomGraph(apsp.GenOptions{N: n, Directed: true, Seed: int64(n), MaxWeight: 50}, 4*n)
		for _, m := range []struct {
			name     string
			parallel bool
			lastHops bool
		}{{"seq", false, false}, {"sharded", true, false}, {"seq-lasthops", false, true}} {
			if m.lastHops && n != 128 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(b *testing.B) {
				b.ReportAllocs()
				var rounds float64
				for i := 0; i < b.N; i++ {
					res, err := apsp.Run(g, apsp.Options{SkipLastHops: !m.lastHops, Parallel: m.parallel})
					if err != nil {
						b.Fatal(err)
					}
					rounds = float64(res.Stats.Rounds)
				}
				b.ReportMetric(rounds, "rounds")
			})
		}
	}
}

// BenchmarkAPSPUpdate measures the dynamic-graph steady state: a warm
// Runner absorbing one single-edge weight update per iteration through
// ApplyUpdates and re-converging with a damage-scoped incremental run.
// Each iteration is ApplyUpdates + Run, so ns/op is the full
// update-to-answer latency; updates/sec and the speedup over the cold
// BenchmarkAPSPPipeline rows at the same n are derived by scripts/bench.sh
// into BENCH_update.json. The toggled edge is chosen (outside the timer) so
// the damage stays narrow enough for the incremental path — the steady
// state this benchmark exists to measure.
func BenchmarkAPSPUpdate(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := apsp.RandomGraph(apsp.GenOptions{N: n, Directed: true, Seed: int64(n), MaxWeight: 50}, 4*n)
			opt := apsp.Options{SkipLastHops: true}
			r, edge, err := updatableRunner(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			// toggle moves the edge to w+2 (up, d = 0) or back to w+1
			// (down, d = 1) and re-runs, failing on any fallback to a cold
			// run; the stats of the latest toggle each way are kept.
			var dir [2]apsp.UpdateStats
			var seen [2]bool
			var rounds float64
			toggle := func(d int) {
				st, err := r.ApplyUpdates([]apsp.EdgeUpdate{{Op: apsp.SetWeight, U: edge.U, V: edge.V, W: edge.W + 2 - int64(d)}})
				if err != nil {
					b.Fatal(err)
				}
				if st.FellBack {
					b.Fatal("update benchmark fell out of the incremental path")
				}
				res, err := r.Run(opt)
				if err != nil {
					b.Fatal(err)
				}
				dir[d], seen[d] = st, true
				if d == 0 {
					rounds = float64(res.Stats.Rounds)
				}
			}
			// Untimed, move the edge off its built weight first, so that
			// every timed toggle goes between w+1 and w+2; after the loop,
			// make the toggle it did not reach, so the metrics read the
			// same at any b.N.
			toggle(1)
			seen[1] = false
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				toggle(i % 2)
			}
			b.StopTimer()
			for d := range seen {
				if !seen[d] {
					toggle(d)
				}
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(float64(dir[0].Recomputed), "recomputed-up")
			b.ReportMetric(float64(dir[0].Reused), "reused-up")
			b.ReportMetric(float64(dir[1].Recomputed), "recomputed-down")
			b.ReportMetric(float64(dir[1].Reused), "reused-down")
		})
	}
}

// updatableRunner warms one Runner on g and deterministically picks an
// edge whose weight toggle keeps the session on the incremental path
// (narrow damage, no adaptive fallback) in both toggle directions. The
// runner is reused across candidates — a fallback verdict just costs the
// cold re-arm run the fallback implies anyway.
func updatableRunner(g *apsp.Graph, opt apsp.Options) (*apsp.Runner, apsp.EdgeUpdate, error) {
	var edges []apsp.EdgeUpdate
	g.Edges(func(u, v int, w int64) {
		edges = append(edges, apsp.EdgeUpdate{U: u, V: v, W: w})
	})
	r, err := apsp.NewRunner(g)
	if err != nil {
		return nil, apsp.EdgeUpdate{}, err
	}
	cold, err := r.Run(opt)
	if err != nil {
		return nil, apsp.EdgeUpdate{}, err
	}
	coldMsgs := cold.Stats.Messages
	// Pre-rank candidates by full-metric slack: an edge tight in some
	// shortest path (slack <= 0) almost surely changes an h-hop tree when
	// toggled, cascading into the expensive stages — skip those outright.
	// Among the rest, the near-tie edges (small positive slack) are the
	// interesting ones: flagged by the conservative damage test, refuted on
	// re-run. Ranking keeps the expensive run-based verification below to a
	// handful of candidates.
	type cand struct {
		e     apsp.EdgeUpdate
		slack int64
	}
	var cands []cand
	for _, e := range edges {
		slack := int64(1 << 62)
		for x := 0; x < g.N(); x++ {
			du, dv := cold.Dist[x][e.U], cold.Dist[x][e.V]
			if du >= apsp.Inf || dv >= apsp.Inf {
				continue
			}
			if s := du + e.W - dv; s < slack {
				slack = s
			}
		}
		if slack > 0 {
			cands = append(cands, cand{e, slack})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].slack < cands[j].slack })
	set := func(u, v int, w int64) (apsp.UpdateStats, *apsp.Result, error) {
		st, err := r.ApplyUpdates([]apsp.EdgeUpdate{{Op: apsp.SetWeight, U: u, V: v, W: w}})
		if err != nil {
			return st, nil, err
		}
		res, err := r.Run(opt)
		return st, res, err
	}
	for _, c := range cands {
		e := c.e
		ok := true
		for _, w := range []int64{e.W + 1, e.W + 2} {
			st, res, err := set(e.U, e.V, w)
			if err != nil {
				return nil, apsp.EdgeUpdate{}, err
			}
			// Suitable means: damage was flagged (the refresh machinery is
			// exercised, not a provable no-op), no adaptive fallback, and the
			// reused stages actually dominated — a cascade back into the
			// expensive stages shows up as a near-cold message count.
			if st.FellBack || st.Recomputed == 0 || res.Stats.Messages*4 > coldMsgs {
				ok = false
				break
			}
		}
		// Restore the original weight (and re-arm the snapshot) so either
		// the timed loop or the next candidate starts clean.
		if _, _, err := set(e.U, e.V, e.W); err != nil {
			return nil, apsp.EdgeUpdate{}, err
		}
		if ok {
			return r, e, nil
		}
	}
	return nil, apsp.EdgeUpdate{}, fmt.Errorf("no edge keeps the incremental path at n=%d", g.N())
}

// BenchmarkAPSPPipelineWarm is the warm-session counterpart of
// BenchmarkAPSPPipeline: the Runner (network, engine arenas, scratch,
// worker fleet) is built and warmed outside the timer, so the measured
// iterations are pure re-runs — the steady state a session serving
// repeated traffic on one graph lives in. Compare against the cold
// BenchmarkAPSPPipeline rows at the same n for the cold-start cost.
func BenchmarkAPSPPipelineWarm(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		g := apsp.RandomGraph(apsp.GenOptions{N: n, Directed: true, Seed: int64(n), MaxWeight: 50}, 4*n)
		for _, m := range []struct {
			name string
			opt  apsp.Options
		}{
			{"seq", apsp.Options{SkipLastHops: true}},
			{"sharded", apsp.Options{SkipLastHops: true, Parallel: true}},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(b *testing.B) {
				r, err := apsp.NewRunner(g)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(m.opt); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var rounds float64
				for i := 0; i < b.N; i++ {
					res, err := r.Run(m.opt)
					if err != nil {
						b.Fatal(err)
					}
					rounds = float64(res.Stats.Rounds)
				}
				b.ReportMetric(rounds, "rounds")
			})
		}
	}
}
