package core

import (
	"testing"

	"congestapsp/internal/graph"
)

// runCold runs opt on a fresh session for g.
func runCold(g *graph.Graph, opt Options) (*Result, error) {
	s, err := NewSession(g)
	if err != nil {
		return nil, err
	}
	return s.Run(opt)
}

func checkAPSP(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := graph.FloydWarshall(g)
	for x := 0; x < g.N; x++ {
		for v := 0; v < g.N; v++ {
			if res.Dist[x][v] != want[x][v] {
				t.Fatalf("dist(%d,%d) = %d, want %d", x, v, res.Dist[x][v], want[x][v])
			}
		}
	}
}

func checkLastHops(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	wmin := make(map[[2]int]int64)
	for _, e := range g.Edges() {
		rec := func(u, v int) {
			k := [2]int{u, v}
			if old, ok := wmin[k]; !ok || e.W < old {
				wmin[k] = e.W
			}
		}
		rec(e.U, e.V)
		if !g.Directed {
			rec(e.V, e.U)
		}
	}
	for x := 0; x < g.N; x++ {
		for v := 0; v < g.N; v++ {
			if x == v {
				continue
			}
			if res.Dist[x][v] >= graph.Inf {
				if res.LastHop[x][v] != -1 {
					t.Fatalf("lastHop(%d,%d) set for unreachable pair", x, v)
				}
				continue
			}
			u := res.LastHop[x][v]
			if u < 0 {
				t.Fatalf("lastHop(%d,%d) missing for reachable pair", x, v)
			}
			w, ok := wmin[[2]int{u, v}]
			if !ok {
				t.Fatalf("lastHop(%d,%d) = %d is not an in-neighbor", x, v, u)
			}
			if res.Dist[x][u]+w != res.Dist[x][v] {
				t.Fatalf("lastHop(%d,%d) = %d does not compose: %d + %d != %d",
					x, v, u, res.Dist[x][u], w, res.Dist[x][v])
			}
		}
	}
}

func families() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"random-undir", graph.RandomConnected(graph.GenConfig{N: 20, Seed: 1, MaxWeight: 9}, 55)},
		{"random-dir", graph.RandomConnected(graph.GenConfig{N: 18, Directed: true, Seed: 2, MaxWeight: 9}, 60)},
		{"ring", graph.Ring(graph.GenConfig{N: 16, Seed: 3, MaxWeight: 9})},
		{"ring-dir", graph.Ring(graph.GenConfig{N: 14, Directed: true, Seed: 4, MaxWeight: 9})},
		{"grid", graph.Grid(4, 5, graph.GenConfig{Seed: 5, MaxWeight: 9})},
		{"layered-dir", graph.Layered(5, 3, graph.GenConfig{Directed: true, Seed: 6, MaxWeight: 9})},
		{"star", graph.Star(graph.GenConfig{N: 15, Seed: 7, MaxWeight: 9})},
		{"zeromix", graph.ZeroWeightMix(graph.GenConfig{N: 17, Seed: 8, MaxWeight: 9}, 50)},
	}
}

func TestDet43ExactEverywhere(t *testing.T) {
	for _, tc := range families() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runCold(tc.g, Options{Variant: Det43})
			if err != nil {
				t.Fatal(err)
			}
			checkAPSP(t, tc.g, res)
			checkLastHops(t, tc.g, res)
		})
	}
}

func TestDet32ExactEverywhere(t *testing.T) {
	for _, tc := range families() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runCold(tc.g, Options{Variant: Det32})
			if err != nil {
				t.Fatal(err)
			}
			checkAPSP(t, tc.g, res)
		})
	}
}

func TestRand43Exact(t *testing.T) {
	for _, tc := range families()[:4] {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runCold(tc.g, Options{Variant: Rand43, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			checkAPSP(t, tc.g, res)
		})
	}
}

func TestBroadcastStep6Exact(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 20, Directed: true, Seed: 12, MaxWeight: 9}, 70)
	res, err := runCold(g, Options{Variant: BroadcastStep6})
	if err != nil {
		t.Fatal(err)
	}
	checkAPSP(t, g, res)
}

func TestDisconnectedDirectedPairs(t *testing.T) {
	// Directed graph whose UG is connected but with unreachable ordered
	// pairs: 0 -> 1 -> 2 with no way back.
	g := graph.New(3, true)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 5)
	res, err := runCold(g, Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	checkAPSP(t, g, res)
	if res.Dist[2][0] != graph.Inf {
		t.Errorf("dist(2,0) = %d, want Inf", res.Dist[2][0])
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 18, Directed: true, Seed: 13, MaxWeight: 9}, 60)
	a, err := runCold(g, Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCold(g, Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Rounds != b.Stats.Rounds || a.Stats.Messages != b.Stats.Messages {
		t.Errorf("stats differ across runs: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.QSize != b.Stats.QSize {
		t.Errorf("|Q| differs: %d vs %d", a.Stats.QSize, b.Stats.QSize)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 18, Seed: 14, MaxWeight: 9}, 55)
	seq, err := runCold(g, Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runCold(g, Options{Variant: Det43, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.N; x++ {
		for v := 0; v < g.N; v++ {
			if seq.Dist[x][v] != par.Dist[x][v] {
				t.Fatalf("parallel dist(%d,%d) differs", x, v)
			}
		}
	}
	if seq.Stats.Rounds != par.Stats.Rounds {
		t.Errorf("round counts differ: %d vs %d", seq.Stats.Rounds, par.Stats.Rounds)
	}
}

func TestHOverride(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 12, Seed: 16, MaxWeight: 9})
	for _, h := range []int{1, 2, 5} {
		res, err := runCold(g, Options{Variant: Det43, H: h})
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if res.Stats.H != h {
			t.Errorf("recorded h = %d, want %d", res.Stats.H, h)
		}
		checkAPSP(t, g, res)
	}
}

func TestSkipLastEdges(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 10, Seed: 17, MaxWeight: 9})
	res, err := runCold(g, Options{Variant: Det43, SkipLastEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastHop != nil {
		t.Error("LastHop computed despite SkipLastEdges")
	}
	checkAPSP(t, g, res)
}

func TestEmptyGraph(t *testing.T) {
	res, err := runCold(graph.New(0, false), Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dist) != 0 {
		t.Error("nonempty result for empty graph")
	}
}

func TestSingleNode(t *testing.T) {
	res, err := runCold(graph.New(1, true), Options{Variant: Det43})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][0] != 0 {
		t.Errorf("dist(0,0) = %d", res.Dist[0][0])
	}
}
