package apsp

import (
	"reflect"
	"testing"

	"congestapsp/internal/graph"
)

func TestRoutingTablesExact(t *testing.T) {
	g := RandomGraph(GenOptions{N: 16, Directed: true, Seed: 4, MaxWeight: 9}, 50)
	r, err := RunWithRouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.FloydWarshall(g.g)
	// weight lookup
	w := map[[2]int]int64{}
	g.Edges(func(u, v int, wt int64) {
		if old, ok := w[[2]int{u, v}]; !ok || wt < old {
			w[[2]int{u, v}] = wt
		}
	})
	for x := 0; x < g.N(); x++ {
		for tt := 0; tt < g.N(); tt++ {
			if r.Dist[x][tt] != want[x][tt] {
				t.Fatalf("dist(%d,%d) wrong", x, tt)
			}
			if x == tt || r.Dist[x][tt] >= Inf {
				continue
			}
			// NextHop must step onto a shortest path.
			nh := r.NextHop[x][tt]
			if nh < 0 {
				t.Fatalf("NextHop(%d,%d) missing", x, tt)
			}
			wt, ok := w[[2]int{x, nh}]
			if !ok {
				t.Fatalf("NextHop(%d,%d)=%d is not an out-neighbor", x, tt, nh)
			}
			if wt+r.Dist[nh][tt] != r.Dist[x][tt] {
				t.Fatalf("NextHop(%d,%d)=%d off the shortest path: %d+%d != %d",
					x, tt, nh, wt, r.Dist[nh][tt], r.Dist[x][tt])
			}
		}
	}
}

func TestRouteWalk(t *testing.T) {
	g := GridGraph(3, 4, GenOptions{Seed: 5, MaxWeight: 7})
	r, err := RunWithRouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.N(); x++ {
		for tt := 0; tt < g.N(); tt++ {
			route := r.Route(x, tt)
			if x == tt {
				if len(route) != 1 || route[0] != x {
					t.Fatalf("self route = %v", route)
				}
				continue
			}
			if r.Dist[x][tt] >= Inf {
				if route != nil {
					t.Fatalf("route for unreachable pair: %v", route)
				}
				continue
			}
			if route == nil || route[0] != x || route[len(route)-1] != tt {
				t.Fatalf("bad route %v for (%d,%d)", route, x, tt)
			}
		}
	}
}

func TestRouteZeroWeights(t *testing.T) {
	// Zero-weight plateaus are the classic way to break forwarding tables
	// (cycles); the settle-wave must keep them acyclic in both directions.
	g := ZeroWeightGraph(GenOptions{N: 14, Seed: 6, MaxWeight: 6}, 42)
	r, err := RunWithRouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.N(); x++ {
		for tt := 0; tt < g.N(); tt++ {
			if x != tt && r.Dist[x][tt] < Inf && r.Route(x, tt) == nil {
				t.Fatalf("forwarding cycle or hole at (%d,%d)", x, tt)
			}
		}
	}
}

func TestRunUnweighted(t *testing.T) {
	g := RingGraph(GenOptions{N: 12, Seed: 7, MaxWeight: 99})
	r, err := RunUnweighted(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops[0][6] != 6 {
		t.Errorf("hops(0,6) = %d, want 6 (weights must be ignored)", r.Hops[0][6])
	}
	if r.Rounds <= 0 || r.Rounds > 8*g.N()+64 {
		t.Errorf("rounds = %d, want O(n)", r.Rounds)
	}
}

// TestRunFromSourcesExact checks the partial-APSP rows of Run with
// Options.Sources against Floyd-Warshall, that other rows and LastHop stay
// nil, and that steps 1-6 (their stage rounds, h, |Q| and the q-sink
// counters) equal a full run's.
func TestRunFromSourcesExact(t *testing.T) {
	cases := []struct {
		g       *Graph
		sources []int
		opt     Options
	}{
		{RandomGraph(GenOptions{N: 20, Directed: true, Seed: 12, MaxWeight: 9}, 70), []int{2, 9, 17}, Options{}},
		{RandomGraph(GenOptions{N: 24, Seed: 13, MaxWeight: 9}, 72), []int{0, 5}, Options{}},
		{RandomGraph(GenOptions{N: 24, Seed: 13, MaxWeight: 9}, 72), []int{0, 5}, Options{Algorithm: Randomized43, Seed: 2, Parallel: true}},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Sources = tc.sources
		res, err := Run(tc.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.FloydWarshall(tc.g.g)
		isSource := map[int]bool{}
		for _, x := range tc.sources {
			isSource[x] = true
			for v := 0; v < tc.g.N(); v++ {
				if res.Dist[x][v] != want[x][v] {
					t.Fatalf("dist(%d,%d) = %d, want %d", x, v, res.Dist[x][v], want[x][v])
				}
			}
		}
		for x, row := range res.Dist {
			if !isSource[x] && row != nil {
				t.Fatalf("row %d is not a source but has distances", x)
			}
		}
		if res.LastHop != nil {
			t.Fatal("partial run resolved last hops")
		}
		full, err := Run(tc.g, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		p, f := stripHostCost(res.Stats), stripHostCost(full.Stats)
		if !reflect.DeepEqual(p.Stages[:6], f.Stages[:6]) || p.H != f.H || p.BlockerSetSize != f.BlockerSetSize ||
			p.BottleneckCount != f.BottleneckCount || p.QPrimeSize != f.QPrimeSize || p.PipelineRounds != f.PipelineRounds {
			t.Errorf("partial run's steps 1-6 diverge from a full run's:\n  got:  %+v\n  want: %+v", p, f)
		}
	}
}

func TestRunFromSourcesCheaperStep7(t *testing.T) {
	g := RandomGraph(GenOptions{N: 24, Seed: 13, MaxWeight: 9}, 72)
	full, err := Run(g, Options{SkipLastHops: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(g, Options{Sources: []int{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	partial, all := stageRounds(part.Stats, "step7-extend"), stageRounds(full.Stats, "step7-extend")
	if partial <= 0 || partial >= all {
		t.Errorf("partial step7 %d not cheaper than full %d", partial, all)
	}
}

func TestRunFromSourcesValidation(t *testing.T) {
	g := RingGraph(GenOptions{N: 8, Seed: 14, MaxWeight: 5})
	if _, err := Run(g, Options{Sources: []int{99}}); err == nil {
		t.Error("out-of-range source accepted")
	}
}
