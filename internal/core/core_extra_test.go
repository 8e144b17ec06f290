package core

import (
	"context"
	"testing"

	"congestapsp/internal/blocker"
	"congestapsp/internal/graph"
)

func TestBlockerOnly(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 18, Seed: 3, MaxWeight: 5})
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []blocker.Mode{blocker.Deterministic, blocker.Greedy, blocker.RandomSample} {
		q, stats, err := s.BlockerOnlyContext(context.Background(), BlockerOptions{H: 3, Mode: mode, Seed: 7})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(q) == 0 {
			t.Errorf("mode %v: empty blocker on a ring", mode)
		}
		if stats.Rounds <= 0 {
			t.Errorf("mode %v: no rounds", mode)
		}
	}
	// H = 0 selects the default ceil(n^(1/3)).
	if _, _, err := s.BlockerOnlyContext(context.Background(), BlockerOptions{}); err != nil {
		t.Errorf("default h: %v", err)
	}
	// An empty graph has an empty blocker set, as Run has an empty Result.
	empty, err := NewSession(graph.New(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if q, stats, err := empty.BlockerOnlyContext(context.Background(), BlockerOptions{}); err != nil || q != nil || stats != (blocker.Stats{}) {
		t.Errorf("empty graph: q=%v stats=%+v err=%v", q, stats, err)
	}
}

func TestOnRoundForwarded(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 10, Seed: 4, MaxWeight: 5})
	calls := 0
	lastRound := -1
	_, err := runCold(g, Options{Variant: Det43, SkipLastEdges: true, OnRound: func(r, d int) {
		calls++
		if r <= lastRound {
			t.Fatalf("round indices not increasing: %d after %d", r, lastRound)
		}
		lastRound = r
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("OnRound never invoked")
	}
}

func TestVariantDefaultsH(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 27, Seed: 5, MaxWeight: 9}, 81)
	r43, err := runCold(g, Options{Variant: Det43, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if r43.Stats.H != 3 { // ceil(27^(1/3)) = 3
		t.Errorf("det43 default h = %d, want 3", r43.Stats.H)
	}
	r32, err := runCold(g, Options{Variant: Det32, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if r32.Stats.H != 6 { // ceil(sqrt(27)) = 6
		t.Errorf("det32 default h = %d, want 6", r32.Stats.H)
	}
}

func TestCongestionAccountingPopulated(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 14, Seed: 6, MaxWeight: 5})
	res, err := runCold(g, Options{Variant: Det43, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxNodeCongestion <= 0 {
		t.Error("max node congestion not recorded")
	}
	if res.Stats.Words < res.Stats.Messages {
		t.Errorf("words %d < messages %d", res.Stats.Words, res.Stats.Messages)
	}
}

func TestMediumIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("medium integration skipped in -short")
	}
	// A mid-size directed instance end-to-end, all variants, exact.
	g := graph.RandomConnected(graph.GenConfig{N: 60, Directed: true, Seed: 77, MaxWeight: 40}, 240)
	want := graph.FloydWarshall(g)
	for _, v := range []Variant{Det43, Det32, Rand43} {
		res, err := runCold(g, Options{Variant: v, Seed: 13, SkipLastEdges: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for x := 0; x < g.N; x++ {
			for u := 0; u < g.N; u++ {
				if res.Dist[x][u] != want[x][u] {
					t.Fatalf("%v: dist(%d,%d) = %d, want %d", v, x, u, res.Dist[x][u], want[x][u])
				}
			}
		}
	}
}

func TestBandwidthScalesDown(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 20, Seed: 8, MaxWeight: 9}, 60)
	r1, err := runCold(g, Options{Variant: Det43, Bandwidth: 1, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := runCold(g, Options{Variant: Det43, Bandwidth: 8, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.Rounds > r1.Stats.Rounds {
		t.Errorf("bandwidth 8 slower: %d vs %d rounds", r8.Stats.Rounds, r1.Stats.Rounds)
	}
}
