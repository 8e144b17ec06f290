package apsp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func runnerTestGraph(n int) *Graph {
	return RandomGraph(GenOptions{N: n, Directed: true, Seed: int64(n) + 7, MaxWeight: 30}, 4*n)
}

// forceWorkers raises GOMAXPROCS to at least 4 for the duration of a test:
// warm sessions toggle Parallel between runs on one network, and that
// transition is only real when the ShardRuns worker fleet genuinely grows
// (on 1-core CI it collapses to one worker).
func forceWorkers(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= 4 {
		return
	}
	runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// stripHostCost zeroes the host-side stage observations (wall-clock,
// allocations) so two Stats can be compared bit-for-bit on everything
// deterministic, including the per-stage round decomposition.
func stripHostCost(s Stats) Stats {
	stages := make([]StageTiming, len(s.Stages))
	for i, st := range s.Stages {
		st.WallMS, st.Allocs = 0, 0
		stages[i] = st
	}
	s.Stages = stages
	return s
}

// TestRunnerMatchesColdRun is the warm-session correctness property: for
// every algorithm profile, a Run on a warm Runner (second and third use of
// the same session, after other variants ran on it) must be bit-identical
// to a cold apsp.Run — distances, last hops, and every deterministic stat
// including per-stage rounds.
func TestRunnerMatchesColdRun(t *testing.T) {
	forceWorkers(t)
	g := runnerTestGraph(40)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph() != g {
		t.Fatal("Graph() identity")
	}
	for _, alg := range []Algorithm{Deterministic43, Deterministic32, Randomized43, BroadcastStep6} {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: alg, Seed: 3, Parallel: parallel}
			warm, err := r.Run(opt)
			if err != nil {
				t.Fatalf("%v warm: %v", alg, err)
			}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v cold: %v", alg, err)
			}
			if !reflect.DeepEqual(cold.Dist, warm.Dist) {
				t.Fatalf("%v parallel=%v: warm distances diverge from cold", alg, parallel)
			}
			if !reflect.DeepEqual(cold.LastHop, warm.LastHop) {
				t.Fatalf("%v parallel=%v: warm last hops diverge from cold", alg, parallel)
			}
			if !reflect.DeepEqual(stripHostCost(cold.Stats), stripHostCost(warm.Stats)) {
				t.Fatalf("%v parallel=%v: warm stats diverge:\n  cold: %+v\n  warm: %+v",
					alg, parallel, stripHostCost(cold.Stats), stripHostCost(warm.Stats))
			}
		}
	}
}

// TestRunnerResultsOutliveLaterRuns pins the caller-owned-result contract:
// a Result captured from a Runner must not change when later runs reuse
// the session's warm state.
func TestRunnerResultsOutliveLaterRuns(t *testing.T) {
	forceWorkers(t)
	g := runnerTestGraph(32)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]int64, len(first.Dist[0]))
	copy(snapshot, first.Dist[0])
	if _, err := r.Run(Options{Algorithm: Deterministic32}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Options{Parallel: true}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Dist[0], snapshot) {
		t.Fatal("earlier Result mutated by later runs on the same Runner")
	}
}

// TestRunnerRunMany: one warm Runner runs many option sets in turn —
// profiles, exec modes and a run without last hops — and each result
// matches a cold run with the same options.
func TestRunnerRunMany(t *testing.T) {
	forceWorkers(t)
	g := runnerTestGraph(24)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{},
		{Algorithm: Deterministic32},
		{Parallel: true},
		{SkipLastHops: true},
	}
	results := make([]*Result, len(opts))
	for i, opt := range opts {
		if results[i], err = r.Run(opt); err != nil {
			t.Fatal(err)
		}
	}
	for i, opt := range opts {
		cold, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Dist, results[i].Dist) {
			t.Fatalf("warm run %d distances diverge from cold run", i)
		}
	}
}

// TestRunnerBlockerSetWarm: BlockerSet on a session that already ran full
// pipelines must match the one-shot construction.
func TestRunnerBlockerSetWarm(t *testing.T) {
	forceWorkers(t)
	g := runnerTestGraph(30)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	warmQ, warmStats, err := r.BlockerSet(BlockerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coldQ, coldStats, err := BlockerSet(g, BlockerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldQ, warmQ) || !reflect.DeepEqual(coldStats, warmStats) {
		t.Fatalf("warm blocker set diverges: %v/%+v vs %v/%+v", warmQ, warmStats, coldQ, coldStats)
	}
}

// TestRunnerRejectsMutatedGraph: the topology is frozen at NewRunner; an
// edge added afterwards must fail the next Run instead of silently using
// the stale network.
func TestRunnerRejectsMutatedGraph(t *testing.T) {
	g := runnerTestGraph(16)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 9, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Options{}); err == nil || !strings.Contains(err.Error(), "modified") {
		t.Fatalf("mutated graph accepted (err = %v)", err)
	}
}

// TestRunnerStagesExposed: per-stage timings reach the public Stats with
// the full stage list, in execution order, every stage but the local
// step5-closure charges rounds, and their rounds sum to the total.
func TestRunnerStagesExposed(t *testing.T) {
	g := runnerTestGraph(24)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"step1-csssp", "step2-blocker", "step3-insssp", "step4-bcast",
		"step5-closure", "step6-qsink", "step7-extend", "step8-lastedge"}
	if len(res.Stats.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(res.Stats.Stages), len(want))
	}
	sum := 0
	for i, st := range res.Stats.Stages {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Name, want[i])
		}
		if (st.Rounds == 0) != (st.Name == "step5-closure") {
			t.Errorf("stage %s charged %d rounds", st.Name, st.Rounds)
		}
		sum += st.Rounds
	}
	if sum != res.Stats.Rounds {
		t.Fatalf("stage rounds sum to %d, total is %d", sum, res.Stats.Rounds)
	}
	skip, err := r.Run(Options{SkipLastHops: true})
	if err != nil {
		t.Fatal(err)
	}
	last := skip.Stats.Stages[len(skip.Stats.Stages)-1]
	if last.Name != "step7-extend" {
		t.Fatalf("skipped stage still present: last stage is %q", last.Name)
	}
}
