package blocker

import (
	"math/rand"
	"testing"
	"testing/quick"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Eps != 1.0/12 || p.Delta != 1.0/12 {
		t.Errorf("defaults eps=%v delta=%v, want 1/12", p.Eps, p.Delta)
	}
	// Out-of-range values reset to the paper defaults.
	p = Params{Eps: 0.9, Delta: -1}.withDefaults()
	if p.Eps != 1.0/12 || p.Delta != 1.0/12 {
		t.Errorf("out-of-range not clamped: eps=%v delta=%v", p.Eps, p.Delta)
	}
	// In-range experimentation values survive.
	p = Params{Eps: 0.25, Delta: 0.5}.withDefaults()
	if p.Eps != 0.25 || p.Delta != 0.5 {
		t.Errorf("valid values clobbered: eps=%v delta=%v", p.Eps, p.Delta)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		Deterministic: "deterministic",
		Randomized:    "randomized",
		Greedy:        "greedy",
		RandomSample:  "randomsample",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestHEqualsOne(t *testing.T) {
	// h = 1: every edge of a tree is a full-length path; the blocker must
	// be a "dominating-ish" set covering every depth-1 child.
	g := graph.RandomConnected(graph.GenConfig{N: 14, Seed: 31, MaxWeight: 5}, 40)
	coll, nw := buildColl(t, g, 1, bford.Out)
	res, err := Compute(nw, coll, Params{Mode: Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstFresh(t, g, 1, bford.Out, res)
}

func TestMaxSelectionStepsCap(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 16, Seed: 32, MaxWeight: 5})
	coll, nw := buildColl(t, g, 3, bford.Out)
	_, err := Compute(nw, coll, Params{Mode: Deterministic, MaxSelectionSteps: -1})
	// A negative cap cannot be hit the normal way because withDefaults only
	// replaces 0; -1 trips on the first step.
	if err == nil {
		t.Error("negative selection-step cap not enforced")
	}
}

func TestInQMatchesQ(t *testing.T) {
	g := graph.Grid(3, 6, graph.GenConfig{Seed: 33, MaxWeight: 8})
	coll, nw := buildColl(t, g, 3, bford.Out)
	res, err := Compute(nw, coll, Params{Mode: Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for v, in := range res.InQ {
		if in {
			count++
			found := false
			for _, q := range res.Q {
				if q == v {
					found = true
				}
			}
			if !found {
				t.Errorf("InQ[%d] set but %d not in Q", v, v)
			}
		}
	}
	if count != len(res.Q) {
		t.Errorf("InQ count %d != |Q| %d", count, len(res.Q))
	}
	for i := 1; i < len(res.Q); i++ {
		if res.Q[i-1] >= res.Q[i] {
			t.Errorf("Q not sorted: %v", res.Q)
		}
	}
}

func TestRandomizedDifferentSeedsBothValid(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 22, Seed: 34, MaxWeight: 9}, 66)
	for _, seed := range []int64{1, 2, 99} {
		coll, nw := buildColl(t, g, 3, bford.Out)
		res, err := Compute(nw, coll, Params{Mode: Randomized, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verifyAgainstFresh(t, g, 3, bford.Out, res)
	}
}

func TestGoodSetBranchProducesValidBlocker(t *testing.T) {
	// The disjoint-paths workload forces the good-set branch (E7); the
	// resulting Q must still be a valid blocker, and the good-set stats
	// must be populated.
	g := graph.DisjointPaths(16, 3, 1000, graph.GenConfig{Seed: 35, MaxWeight: 4})
	coll, nw := buildColl(t, g, 3, bford.Out)
	res, err := Compute(nw, coll, Params{Mode: Deterministic, Delta: 0.5, UseFullSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstFresh(t, g, 3, bford.Out, res)
	if res.Stats.GoodSetSelections == 0 {
		t.Error("good-set branch not taken on the forcing workload")
	}
	if res.Stats.PointsScanned == 0 {
		t.Error("no sample points recorded")
	}
	if res.Stats.GoodPoints*8 < res.Stats.PointsScanned {
		t.Errorf("good-point fraction %d/%d below the Lemma 3.8 floor",
			res.Stats.GoodPoints, res.Stats.PointsScanned)
	}
}

func TestLinearSliceAlsoFindsGoodSets(t *testing.T) {
	// The O(n)-point enumerated slice (the distributed default) should
	// find good points on the same workload without needing the fallback.
	g := graph.DisjointPaths(16, 3, 1000, graph.GenConfig{Seed: 36, MaxWeight: 4})
	coll, nw := buildColl(t, g, 3, bford.Out)
	res, err := Compute(nw, coll, Params{Mode: Deterministic, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstFresh(t, g, 3, bford.Out, res)
	if res.Stats.GoodSetSelections == 0 && res.Stats.FallbackSteps == 0 {
		t.Error("neither good set nor fallback recorded on forcing workload")
	}
	if res.Stats.FallbackSteps > res.Stats.GoodSetSelections {
		t.Logf("note: fallbacks (%d) exceed good sets (%d) on this instance",
			res.Stats.FallbackSteps, res.Stats.GoodSetSelections)
	}
}

func TestStatsRoundsPositiveAllModes(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 15, Seed: 37, MaxWeight: 5})
	for _, mode := range []Mode{Deterministic, Randomized, Greedy, RandomSample} {
		coll, nw := buildColl(t, g, 3, bford.Out)
		res, err := Compute(nw, coll, Params{Mode: mode, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.Rounds <= 0 {
			t.Errorf("%v: rounds = %d", mode, res.Stats.Rounds)
		}
	}
}

// Property: on arbitrary connected random graphs, the deterministic
// construction always yields a valid blocker set.
func TestQuickDeterministicAlwaysCovers(t *testing.T) {
	f := func(seed int64, nRaw, hRaw uint8, directed bool) bool {
		n := 8 + int(nRaw%16)
		h := 2 + int(hRaw%3)
		g := graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: seed, MaxWeight: 12}, 3*n)
		coll, nw := buildCollQuick(g, h)
		if coll == nil {
			return false
		}
		res, err := Compute(nw, coll, Params{Mode: Deterministic})
		if err != nil {
			return false
		}
		fresh, _ := buildCollQuick(g, h)
		return Verify(fresh, res.InQ) == nil
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func buildCollQuick(g *graph.Graph, h int) (*csssp.Collection, *congest.Network) {
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		return nil, nil
	}
	srcs := make([]int, g.N)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err := csssp.Build(nw, g, srcs, h, bford.Out)
	if err != nil {
		return nil, nil
	}
	return coll, nw
}
