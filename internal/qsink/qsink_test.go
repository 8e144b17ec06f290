package qsink

import (
	"fmt"
	"math"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

func checkExact(t *testing.T, g *graph.Graph, Q []int, res *Result) {
	t.Helper()
	delta := graph.BlockerDelta(g, Q)
	for ci := range Q {
		for x := 0; x < g.N; x++ {
			want := delta.At(x, ci)
			got := res.AtBlocker[ci][x]
			if want >= graph.Inf {
				if got < graph.Inf {
					t.Errorf("blocker %d (node %d): source %d unreachable but got %d", ci, Q[ci], x, got)
				}
				continue
			}
			if got != want {
				t.Errorf("blocker %d (node %d): delta(%d,.) = %d, want %d", ci, Q[ci], x, got, want)
			}
		}
	}
}

func run(t *testing.T, g *graph.Graph, Q []int, par Params) *Result {
	t.Helper()
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(nw, g, Q, graph.BlockerDelta(g, Q), par)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type qsinkCase struct {
	name string
	g    *graph.Graph
	Q    []int
}

func TestRoundRobinExactAllFamilies(t *testing.T) {
	cases := []qsinkCase{
		{"random-undir", graph.RandomConnected(graph.GenConfig{N: 26, Seed: 1, MaxWeight: 9}, 70), []int{2, 7, 19}},
		{"random-dir", graph.RandomConnected(graph.GenConfig{N: 24, Directed: true, Seed: 2, MaxWeight: 9}, 80), []int{0, 11, 17, 23}},
		{"ring", graph.Ring(graph.GenConfig{N: 20, Seed: 3, MaxWeight: 9}), []int{0, 9}},
		{"grid", graph.Grid(4, 6, graph.GenConfig{Seed: 4, MaxWeight: 9}), []int{5, 13, 21}},
		{"star", graph.Star(graph.GenConfig{N: 18, Seed: 5, MaxWeight: 9}), []int{0, 4, 9}},
		{"zeromix", graph.ZeroWeightMix(graph.GenConfig{N: 22, Seed: 6, MaxWeight: 9}, 66), []int{1, 8, 14}},
	}
	// Generated cells: the star, grid, random and powerlaw scenario
	// families at six sizes and three seeds, with every 2nd, 3rd or 4th
	// node in Q.
	for _, fam := range []string{"star", "grid", "random", "powerlaw"} {
		for _, n := range []int{16, 24, 32, 48, 64, 96} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := graph.GenConfig{N: n, Seed: seed, MaxWeight: 50}
				var g *graph.Graph
				switch fam {
				case "star":
					g = graph.Star(cfg)
				case "grid":
					rows := int(math.Sqrt(float64(n)))
					g = graph.Grid(rows, (n+rows-1)/rows, cfg)
				case "random":
					g = graph.RandomConnected(cfg, 4*n)
				case "powerlaw":
					g = graph.PowerLaw(cfg, 3)
				}
				for step := 2; step <= 4; step++ {
					var Q []int
					for v := 0; v < g.N; v += step {
						Q = append(Q, v)
					}
					name := fmt.Sprintf("%s-n%d-s%d-q%d", fam, n, seed, step)
					cases = append(cases, qsinkCase{name, g, Q})
				}
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, tc.g, tc.Q, Params{Scheduler: RoundRobin})
			checkExact(t, tc.g, tc.Q, res)
			// Lemmas A.15-A.16 at the default multiplier: at most sqrt(|Q|)
			// bottlenecks, and no node's load above the bound once they go.
			st := res.Stats
			if float64(st.BottleneckCount) > math.Sqrt(float64(len(tc.Q))) {
				t.Errorf("|B| = %d > sqrt(|Q|) = %.2f", st.BottleneckCount, math.Sqrt(float64(len(tc.Q))))
			}
			if st.MaxLoadAfter > st.CongestionBound {
				t.Errorf("load after bottleneck removal %d > bound %d", st.MaxLoadAfter, st.CongestionBound)
			}
		})
	}
}

func TestFramesExact(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 24, Seed: 7, MaxWeight: 9}, 70)
	Q := []int{3, 9, 15, 21}
	res := run(t, g, Q, Params{Scheduler: Frames})
	checkExact(t, g, Q, res)
	if res.Stats.FrameStages == 0 && res.Stats.PipelineMessages > 0 {
		t.Error("frame scheduler delivered messages without recording stages")
	}
}

func TestBroadcastBaselineExact(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 24, Directed: true, Seed: 8, MaxWeight: 9}, 80)
	Q := []int{1, 6, 12, 18}
	res := run(t, g, Q, Params{Scheduler: BroadcastAll})
	checkExact(t, g, Q, res)
}

func TestCase1ExercisedOnLongRing(t *testing.T) {
	// A ring of 30 nodes with H2 = 4 forces many pairs into case (i):
	// hops(x, c) up to 15 >> 4. Exactness then depends on Algorithm 8's Q'
	// machinery.
	g := graph.Ring(graph.GenConfig{N: 30, Seed: 9, MaxWeight: 9})
	Q := []int{0, 14}
	res := run(t, g, Q, Params{Scheduler: RoundRobin, H2: 4})
	checkExact(t, g, Q, res)
	if res.Stats.QPrimeSize == 0 {
		t.Error("long-hop instance produced an empty Q'")
	}
}

func TestCase1SkipIsExactWhenDiameterSmall(t *testing.T) {
	// H2 >= diameter: case (ii) alone must already be exact.
	g := graph.RandomConnected(graph.GenConfig{N: 20, Seed: 10, MaxWeight: 9}, 70)
	Q := []int{2, 11}
	res := run(t, g, Q, Params{Scheduler: RoundRobin, H2: 19, SkipCase1: true})
	checkExact(t, g, Q, res)
}

func TestBottlenecksOnStar(t *testing.T) {
	// Star: the hub relays every message; with a tight congestion bound it
	// must be picked as a bottleneck and the result stays exact.
	g := graph.Star(graph.GenConfig{N: 24, Seed: 11, MaxWeight: 9})
	Q := []int{3, 8, 13, 18, 21}
	res := run(t, g, Q, Params{Scheduler: RoundRobin, CongestionMult: 0.02})
	checkExact(t, g, Q, res)
	if res.Stats.BottleneckCount == 0 {
		t.Error("tight bound on a star selected no bottleneck nodes")
	}
	if res.Stats.MaxLoadAfter > res.Stats.MaxLoadBefore {
		t.Errorf("load grew: before %d after %d", res.Stats.MaxLoadBefore, res.Stats.MaxLoadAfter)
	}
}

func TestBottleneckLoadBound(t *testing.T) {
	// Lemma A.15: after Compute-Bottleneck, every load is at most the bound.
	g := graph.Grid(5, 6, graph.GenConfig{Seed: 12, MaxWeight: 9})
	Q := []int{0, 7, 14, 21, 28}
	res := run(t, g, Q, Params{Scheduler: RoundRobin, CongestionMult: 0.05})
	checkExact(t, g, Q, res)
	if res.Stats.MaxLoadAfter > res.Stats.CongestionBound {
		t.Errorf("post-removal load %d exceeds bound %d", res.Stats.MaxLoadAfter, res.Stats.CongestionBound)
	}
}

func TestEmptyQ(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 8, Seed: 13, MaxWeight: 5})
	nw, _ := congest.NewNetwork(g, 1)
	res, err := Run(nw, g, nil, graph.BlockerDelta(g, nil), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AtBlocker) != 0 {
		t.Error("empty Q produced blocker rows")
	}
}

func TestInputValidation(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 8, Seed: 14, MaxWeight: 5})
	nw, _ := congest.NewNetwork(g, 1)
	if _, err := Run(nw, g, []int{1}, mat.New(3, 1), Params{}); err == nil {
		t.Error("short delta accepted")
	}
	if _, err := Run(nw, g, []int{1}, mat.New(8, 5), Params{}); err == nil {
		t.Error("wrong-width delta accepted")
	}
}

func TestRoundRobinVsBroadcastRounds(t *testing.T) {
	// The whole point of Section 4: the pipelined delivery must beat the
	// broadcast baseline once |Q| is sizable.
	g := graph.RandomConnected(graph.GenConfig{N: 40, Seed: 15, MaxWeight: 9}, 120)
	var Q []int
	for v := 0; v < g.N; v += 3 {
		Q = append(Q, v)
	}
	rr := run(t, g, Q, Params{Scheduler: RoundRobin})
	bc := run(t, g, Q, Params{Scheduler: BroadcastAll})
	checkExact(t, g, Q, rr)
	if rr.Stats.RoundsTotal <= 0 || bc.Stats.RoundsTotal <= 0 {
		t.Fatal("missing round accounting")
	}
	t.Logf("roundrobin=%d broadcast=%d", rr.Stats.RoundsTotal, bc.Stats.RoundsTotal)
}

func TestDeterministicRepeat(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 26, Directed: true, Seed: 16, MaxWeight: 9}, 90)
	Q := []int{4, 13, 22}
	a := run(t, g, Q, Params{Scheduler: RoundRobin})
	b := run(t, g, Q, Params{Scheduler: RoundRobin})
	if a.Stats.RoundsTotal != b.Stats.RoundsTotal {
		t.Errorf("rounds differ: %d vs %d", a.Stats.RoundsTotal, b.Stats.RoundsTotal)
	}
	for ci := range Q {
		for x := 0; x < g.N; x++ {
			if a.AtBlocker[ci][x] != b.AtBlocker[ci][x] {
				t.Fatalf("values differ at (%d,%d)", ci, x)
			}
		}
	}
}

func TestPipelineBudgetSane(t *testing.T) {
	if pipelineBudget(10, 3, 5) <= 0 {
		t.Error("non-positive budget")
	}
	big := pipelineBudget(100, 20, 1000)
	if float64(big) < math.Pow(100, 4.0/3) {
		t.Errorf("budget %d below n^(4/3)", big)
	}
}

// buildCQ is a test helper constructing an in-CSSSP for the given sources.
func buildCQ(t testing.TB, nw *congest.Network, g *graph.Graph, sources []int, h int) (*csssp.Collection, error) {
	t.Helper()
	return csssp.Build(nw, g, sources, h, bford.In)
}
