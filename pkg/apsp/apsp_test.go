package apsp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"congestapsp/internal/graph"
)

func oracle(g *Graph) [][]int64 { return graph.FloydWarshall(g.g) }

func TestQuickstartShape(t *testing.T) {
	g := NewGraph(4, false)
	for _, e := range [][3]int64{{0, 1, 3}, {1, 2, 1}, {2, 3, 2}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][3] != 6 {
		t.Errorf("dist(0,3) = %d, want 6", res.Dist[0][3])
	}
	if res.Stats.Rounds <= 0 {
		t.Error("no rounds recorded")
	}
	p := res.Path(0, 3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestAllAlgorithmsExact(t *testing.T) {
	g := RandomGraph(GenOptions{N: 18, Directed: true, Seed: 3, MaxWeight: 9}, 60)
	want := oracle(g)
	for _, alg := range []Algorithm{Deterministic43, Deterministic32, Randomized43, BroadcastStep6} {
		res, err := Run(g, Options{Algorithm: alg, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for x := 0; x < g.N(); x++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[x][v] != want[x][v] {
					t.Fatalf("%v: dist(%d,%d) = %d, want %d", alg, x, v, res.Dist[x][v], want[x][v])
				}
			}
		}
	}
}

// TestPathReconstructionEverywhere walks Result.Path for every reachable
// pair: each path must start at x, end at t, use only edges, and weigh
// Dist[x][t]. The zero-weight graphs have plateaus on which a wrong
// last-hop rule leaves a predecessor cycle, which Path reports as nil.
func TestPathReconstructionEverywhere(t *testing.T) {
	graphs := []*Graph{
		GridGraph(4, 5, GenOptions{Seed: 7, MaxWeight: 6}),
		RandomGraph(GenOptions{N: 16, Directed: true, Seed: 4, MaxWeight: 9}, 50),
		ZeroWeightGraph(GenOptions{N: 14, Seed: 6, MaxWeight: 6}, 42),
		ZeroWeightGraph(GenOptions{N: 14, Directed: true, Seed: 6, MaxWeight: 6}, 42),
	}
	for gi, g := range graphs {
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Collect edge weights for validation.
		w := map[[2]int]int64{}
		g.Edges(func(u, v int, wt int64) {
			if old, ok := w[[2]int{u, v}]; !ok || wt < old {
				w[[2]int{u, v}] = wt
			}
			if !g.Directed() {
				if old, ok := w[[2]int{v, u}]; !ok || wt < old {
					w[[2]int{v, u}] = wt
				}
			}
		})
		for x := 0; x < g.N(); x++ {
			for t2 := 0; t2 < g.N(); t2++ {
				if x == t2 || res.Dist[x][t2] >= Inf {
					continue
				}
				p := res.Path(x, t2)
				if p == nil || p[0] != x || p[len(p)-1] != t2 {
					t.Fatalf("graph %d: bad path %v for (%d,%d)", gi, p, x, t2)
				}
				var sum int64
				for i := 0; i+1 < len(p); i++ {
					wt, ok := w[[2]int{p[i], p[i+1]}]
					if !ok {
						t.Fatalf("graph %d: path (%d,%d) uses non-edge (%d,%d)", gi, x, t2, p[i], p[i+1])
					}
					sum += wt
				}
				if sum != res.Dist[x][t2] {
					t.Fatalf("graph %d: path weight %d != dist %d for (%d,%d)", gi, sum, res.Dist[x][t2], x, t2)
				}
			}
		}
	}
}

func TestPathNilCases(t *testing.T) {
	g := NewGraph(3, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Path(2, 0); p != nil {
		t.Errorf("path for unreachable pair: %v", p)
	}
	res2, err := Run(g, Options{SkipLastHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := res2.Path(0, 2); p != nil {
		t.Errorf("path without last hops: %v", p)
	}
}

func TestGeneratorsProduceRunnableGraphs(t *testing.T) {
	graphs := []*Graph{
		RandomGraph(GenOptions{N: 14, Seed: 1, MaxWeight: 5}, 40),
		RingGraph(GenOptions{N: 12, Seed: 2, MaxWeight: 5}),
		GridGraph(3, 4, GenOptions{Seed: 3, MaxWeight: 5}),
		LayeredGraph(4, 3, GenOptions{Seed: 4, MaxWeight: 5}),
		StarGraph(GenOptions{N: 11, Seed: 5, MaxWeight: 5}),
		ZeroWeightGraph(GenOptions{N: 13, Seed: 6, MaxWeight: 5}, 35),
	}
	for i, g := range graphs {
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		want := oracle(g)
		for x := 0; x < g.N(); x++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[x][v] != want[x][v] {
					t.Fatalf("graph %d: dist(%d,%d) mismatch", i, x, v)
				}
			}
		}
	}
}

func TestBlockerSetAPI(t *testing.T) {
	g := RingGraph(GenOptions{N: 16, Seed: 8, MaxWeight: 5})
	for _, mode := range []BlockerMode{BlockerDeterministic, BlockerRandomized, BlockerGreedy, BlockerSampled} {
		q, stats, err := BlockerSet(g, BlockerOptions{HopParam: 3, Mode: mode, Seed: 9, Parallel: true})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if stats.Size != len(q) {
			t.Errorf("mode %d: stats.Size %d != len(q) %d", mode, stats.Size, len(q))
		}
		if len(q) == 0 {
			t.Errorf("mode %d: empty blocker set on a ring", mode)
		}
		if stats.Rounds <= 0 {
			t.Errorf("mode %d: no rounds recorded", mode)
		}
	}
}

func TestStatsExposure(t *testing.T) {
	g := RandomGraph(GenOptions{N: 20, Seed: 10, MaxWeight: 9}, 60)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.N != 20 || s.M != 60 {
		t.Errorf("N,M = %d,%d", s.N, s.M)
	}
	if s.H <= 0 || s.BlockerSetSize < 0 || s.Messages <= 0 {
		t.Errorf("implausible stats: %+v", s)
	}
	if stageRounds(s, "step1-csssp") <= 0 || stageRounds(s, "step7-extend") <= 0 {
		t.Errorf("stage breakdown missing: %+v", s.Stages)
	}
	// A negative HopParam selects the default h, as BlockerSet's does.
	neg, err := Run(g, Options{HopParam: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripHostCost(neg.Stats), stripHostCost(s); !reflect.DeepEqual(got, want) {
		t.Errorf("HopParam -1 stats diverge from the default's:\n  got:  %+v\n  want: %+v", got, want)
	}
}

// stageRounds returns the rounds the named stage charged (0 when it did
// not run).
func stageRounds(s Stats, name string) int {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Rounds
		}
	}
	return 0
}

func TestBandwidthOption(t *testing.T) {
	g := RandomGraph(GenOptions{N: 16, Seed: 11, MaxWeight: 9}, 48)
	r1, err := Run(g, Options{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(g, Options{Bandwidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.Rounds > r1.Stats.Rounds {
		t.Errorf("more bandwidth used more rounds: %d vs %d", r4.Stats.Rounds, r1.Stats.Rounds)
	}
	want := oracle(g)
	for x := 0; x < g.N(); x++ {
		for v := 0; v < g.N(); v++ {
			if r4.Dist[x][v] != want[x][v] {
				t.Fatal("bandwidth-4 run inexact")
			}
		}
	}
}

// Property: on random small graphs, the public API matches Floyd-Warshall
// for the default profile.
func TestQuickPublicAPIExact(t *testing.T) {
	f := func(seed int64, nRaw uint8, directed bool) bool {
		n := 6 + int(nRaw%10)
		g := RandomGraph(GenOptions{N: n, Directed: directed, Seed: seed, MaxWeight: 12}, 3*n)
		res, err := Run(g, Options{})
		if err != nil {
			return false
		}
		want := oracle(g)
		for x := 0; x < n; x++ {
			for v := 0; v < n; v++ {
				if res.Dist[x][v] != want[x][v] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
