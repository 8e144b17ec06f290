package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/faultinject"
	"congestapsp/internal/graph"
)

func cloneGraph(g *graph.Graph) *graph.Graph {
	c := graph.New(g.N, g.Directed)
	for _, e := range g.Edges() {
		c.MustAddEdge(e.U, e.V, e.W)
	}
	return c
}

// TestIncrementalOracle is the bit-identity oracle for the update path:
// after every ApplyUpdates batch — weight increase, decrease to zero,
// insert, delete, multi-update — the warm run must match a COLD run on an
// independent copy of the mutated graph in distances, last hops, round
// count, |Q| and h, across all four profiles and both execution modes.
// (Message/word counters are exempt for the incremental run itself — skipped
// stages do not simulate — but the next plain warm run must be fully
// bit-identical to cold, counters included.)
func TestIncrementalOracle(t *testing.T) {
	variants := []struct {
		name string
		v    Variant
	}{{"det43", Det43}, {"det32", Det32}, {"rand43", Rand43}, {"bcast6", BroadcastStep6}}
	gens := []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"undir", func() *graph.Graph {
			return graph.RandomConnected(graph.GenConfig{N: 22, Seed: 31, MaxWeight: 9}, 66)
		}},
		{"dir", func() *graph.Graph {
			return graph.RandomConnected(graph.GenConfig{N: 20, Directed: true, Seed: 32, MaxWeight: 9}, 70)
		}},
	}
	for _, vt := range variants {
		for _, par := range []bool{false, true} {
			for _, gc := range gens {
				t.Run(fmt.Sprintf("%s/par=%v/%s", vt.name, par, gc.name), func(t *testing.T) {
					g := gc.gen()
					opt := Options{Variant: vt.v, Parallel: par}
					s, err := NewSession(g)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Run(opt); err != nil {
						t.Fatal(err)
					}
					edges := g.Edges()
					e1, e2 := edges[len(edges)/3], edges[len(edges)/2]
					batches := [][]EdgeUpdate{
						{{Op: SetWeight, U: e1.U, V: e1.V, W: e1.W + 7}},
						{{Op: SetWeight, U: e2.U, V: e2.V, W: 0}},
						{{Op: InsertEdge, U: 0, V: g.N - 1, W: 1}},
						{{Op: DeleteEdge, U: 0, V: g.N - 1}},
						{{Op: SetWeight, U: e1.U, V: e1.V, W: 2}, {Op: SetWeight, U: e2.U, V: e2.V, W: 5}},
					}
					for bi, batch := range batches {
						if _, err := s.ApplyUpdates(batch); err != nil {
							t.Fatalf("batch %d: %v", bi, err)
						}
						warm, err := s.Run(opt)
						if err != nil {
							t.Fatalf("batch %d warm run: %v", bi, err)
						}
						cold, err := runCold(cloneGraph(g), opt)
						if err != nil {
							t.Fatalf("batch %d cold run: %v", bi, err)
						}
						if !reflect.DeepEqual(warm.Dist, cold.Dist) {
							t.Fatalf("batch %d: warm distances differ from cold", bi)
						}
						if !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
							t.Fatalf("batch %d: warm last hops differ from cold", bi)
						}
						if warm.Stats.Rounds != cold.Stats.Rounds {
							t.Fatalf("batch %d: warm rounds %d != cold rounds %d", bi, warm.Stats.Rounds, cold.Stats.Rounds)
						}
						if warm.Stats.QSize != cold.Stats.QSize || warm.Stats.H != cold.Stats.H {
							t.Fatalf("batch %d: warm |Q|=%d h=%d, cold |Q|=%d h=%d",
								bi, warm.Stats.QSize, warm.Stats.H, cold.Stats.QSize, cold.Stats.H)
						}
						checkAPSP(t, g, warm)
						// A plain warm re-run has no pending updates: it must be
						// fully bit-identical to cold, simulation counters included.
						warm2, err := s.Run(opt)
						if err != nil {
							t.Fatalf("batch %d warm re-run: %v", bi, err)
						}
						if !reflect.DeepEqual(fp(warm2), fp(cold)) {
							t.Fatalf("batch %d: plain warm re-run not bit-identical to cold", bi)
						}
					}
				})
			}
		}
	}
}

// TestIncrementalOracleSmokeN64 is the CI-sized cell of the oracle: one
// det43 configuration at n=64 — large enough for multi-system damage and
// a non-trivial blocker set, small enough for the race detector. CI runs
// this under -race as the update-oracle smoke.
func TestIncrementalOracleSmokeN64(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 64, Seed: 64, MaxWeight: 20}, 256)
	opt := Options{Variant: Det43, Parallel: true}
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(opt); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	e1, e2 := edges[len(edges)/4], edges[len(edges)/2]
	batches := [][]EdgeUpdate{
		{{Op: SetWeight, U: e1.U, V: e1.V, W: e1.W + 5}},
		{{Op: SetWeight, U: e2.U, V: e2.V, W: 1}},
		{{Op: InsertEdge, U: 0, V: g.N - 1, W: 2}, {Op: SetWeight, U: e1.U, V: e1.V, W: e1.W}},
		{{Op: DeleteEdge, U: 0, V: g.N - 1}},
	}
	for bi, batch := range batches {
		if _, err := s.ApplyUpdates(batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		warm, err := s.Run(opt)
		if err != nil {
			t.Fatalf("batch %d warm run: %v", bi, err)
		}
		cold, err := runCold(cloneGraph(g), opt)
		if err != nil {
			t.Fatalf("batch %d cold run: %v", bi, err)
		}
		if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
			t.Fatalf("batch %d: warm results differ from cold", bi)
		}
		if warm.Stats.Rounds != cold.Stats.Rounds || warm.Stats.QSize != cold.Stats.QSize || warm.Stats.H != cold.Stats.H {
			t.Fatalf("batch %d: warm rounds/|Q|/h (%d/%d/%d) != cold (%d/%d/%d)", bi,
				warm.Stats.Rounds, warm.Stats.QSize, warm.Stats.H,
				cold.Stats.Rounds, cold.Stats.QSize, cold.Stats.H)
		}
	}
}

// TestIncrementalZeroDamage pins the best case: an update the damage test
// proves irrelevant (a heavy non-shortest edge gets heavier) reuses every
// tracked system — and the warm run still agrees with cold on results and
// rounds.
func TestIncrementalZeroDamage(t *testing.T) {
	g := graph.New(3, false)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 5)
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Variant: Det43}
	if _, err := s.Run(opt); err != nil {
		t.Fatal(err)
	}
	st, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: 0, V: 2, W: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		t.Fatal("zero-damage update fell back")
	}
	if st.Recomputed != 0 {
		t.Fatalf("zero-damage update marked %d systems dirty", st.Recomputed)
	}
	// Reused covers all 2n + |Q| tracked systems.
	if want := 2*g.N + len(s.snap.dirty3); st.Reused != want {
		t.Fatalf("reused %d, want %d", st.Reused, want)
	}
	warm, err := s.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runCold(cloneGraph(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Dist, cold.Dist) || warm.Stats.Rounds != cold.Stats.Rounds {
		t.Fatal("zero-damage warm run differs from cold")
	}
}

// TestApplyUpdatesErrors pins the failure modes: unknown edges, invalid
// weights, unknown ops, and out-of-band mutation. An error mid-batch leaves
// the earlier prefix applied and the session consistent with it.
func TestApplyUpdatesErrors(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 12, Seed: 9, MaxWeight: 9}, 30)
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Variant: Det43}
	if _, err := s.Run(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("set-weight on a missing edge accepted")
	}
	if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: DeleteEdge, U: 0, V: 0}}); err == nil {
		t.Fatal("delete of a missing edge accepted")
	}
	if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: UpdateOp(99), U: 0, V: 1, W: 1}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	e := g.Edges()[0]
	// Mid-batch failure: the first update applies, the second rejects.
	if _, err := s.ApplyUpdates([]EdgeUpdate{
		{Op: SetWeight, U: e.U, V: e.V, W: e.W + 1},
		{Op: SetWeight, U: e.U, V: e.V, W: -4},
	}); err == nil {
		t.Fatal("negative weight accepted")
	}
	warm, err := s.Run(opt)
	if err != nil {
		t.Fatalf("session unusable after failed batch: %v", err)
	}
	cold, err := runCold(cloneGraph(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Dist, cold.Dist) {
		t.Fatal("session inconsistent with the partially-applied batch")
	}
	// Out-of-band mutation: ApplyUpdates refuses a graph it no longer knows.
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: e.U, V: e.V, W: 1}}); err == nil {
		t.Fatal("out-of-band mutation not caught by ApplyUpdates")
	}
}

// TestIncrementalFaultInjection is the update-path cell of the fault
// matrix: a panic injected into the middle of an incremental run surfaces
// as a tagged *congest.PanicError, and the session honors the
// reuse-after-error contract — the next clean run is fully bit-identical
// (counters included) to a cold run on the mutated graph.
func TestIncrementalFaultInjection(t *testing.T) {
	for _, par := range []bool{false, true} {
		t.Run(fmt.Sprintf("par=%v", par), func(t *testing.T) {
			base := graph.RandomConnected(graph.GenConfig{N: 28, Seed: 11, MaxWeight: 9}, 84)
			opt := Options{Variant: Det43, Parallel: par}
			// Deterministically find an update with narrow damage: the run
			// must stay on the incremental path (no adaptive fallback) AND
			// leave Step-1 refresh work for the injector to sabotage.
			var (
				g *graph.Graph
				s *Session
			)
			for _, e := range base.Edges() {
				if e.W < 2 {
					continue
				}
				cand := cloneGraph(base)
				sc, err := NewSession(cand)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sc.Run(opt); err != nil {
					t.Fatal(err)
				}
				st, err := sc.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: e.U, V: e.V, W: e.W - 1}})
				if err != nil {
					t.Fatal(err)
				}
				if !st.FellBack && countTrue(sc.snap.dirty1) > 0 {
					g, s = cand, sc
					break
				}
			}
			if s == nil {
				t.Fatal("no edge produced a narrow-damage incremental update")
			}
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookSubRun, Stage: "step1-csssp", SubRun: 0,
				Kind: faultinject.Panic, Once: true,
			})
			s.SetFaultInjector(inj)
			_, err := s.Run(opt)
			var pe *congest.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T (%v), want *congest.PanicError", err, err)
			}
			if pe.Stage != "step1-csssp" {
				t.Fatalf("panic tagged %q, want step1-csssp", pe.Stage)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1 (incremental refresh did not run)", inj.Fired())
			}
			s.SetFaultInjector(nil)
			warm, err := s.Run(opt)
			if err != nil {
				t.Fatalf("session unusable after injected panic: %v", err)
			}
			cold, err := runCold(cloneGraph(g), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fp(warm), fp(cold)) {
				t.Fatal("post-panic run not bit-identical to cold on the mutated graph")
			}
		})
	}
}

// TestIncrementalHopBoundCounterexample pins the hop-bound soundness hole
// the replay closes (hops.go): a chain gives v a cheap 2h-hop label
// while shortcut s->u->v->t is the only <=2h-hop route to t, so decreasing
// the shortcut weight changes t's label even though the relaxation test
// judges the tree clean (D[u]+wmin > D[v] — the change lands on a
// below-convergence Pareto point the collapsed label row hides). The warm
// run after the update must match cold in results AND round accounting.
func TestIncrementalHopBoundCounterexample(t *testing.T) {
	// H=3 => label budget 2h=6. s=0, chain 0->1->...->6 (v=6), u=7, t=8.
	g := graph.New(9, true)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	g.MustAddEdge(0, 7, 2)  // s->u
	g.MustAddEdge(7, 6, 50) // u->v (the updated edge)
	g.MustAddEdge(6, 8, 1)  // v->t
	opt := Options{Variant: Det43, H: 3}
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(opt); err != nil {
		t.Fatal(err)
	}
	st, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: 7, V: 6, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		t.Logf("fell back (adaptive threshold): %+v", st)
	}
	warm, err := s.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runCold(cloneGraph(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Dist, cold.Dist) {
		t.Errorf("Dist mismatch:\nwarm %v\ncold %v", warm.Dist, cold.Dist)
	}
	if !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
		t.Errorf("LastHop mismatch")
	}
	if warm.Stats.Rounds != cold.Stats.Rounds || warm.Stats.QSize != cold.Stats.QSize {
		t.Errorf("rounds/|Q|: warm %d/%d cold %d/%d",
			warm.Stats.Rounds, warm.Stats.QSize, cold.Stats.Rounds, cold.Stats.QSize)
	}
}

// TestIncrementalAdversarialStress drives the damage model with the graph
// family most hostile to it: a light spanning chain (long-hop cheap paths,
// late convergence levels) plus heavy shortcuts (short-hop expensive
// paths), exactly the shape that manufactures below-convergence Pareto
// points. Random sharp decreases and increases, three batches per seed;
// warm must match cold in Dist, LastHop, rounds and |Q| every time.
func TestIncrementalAdversarialStress(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 12 + rng.Intn(10)
			directed := rng.Intn(2) == 0
			g := graph.New(n, directed)
			for i := 0; i < n-1; i++ {
				g.MustAddEdge(i, i+1, int64(1+rng.Intn(2)))
			}
			for k := 0; k < 4+rng.Intn(5); k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				g.MustAddEdge(u, v, int64(1+rng.Intn(60)))
			}
			opt := Options{Variant: Det43, H: 2 + rng.Intn(2)}
			s, err := NewSession(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(opt); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 3; b++ {
				edges := g.Edges()
				e := edges[rng.Intn(len(edges))]
				var nw int64
				if rng.Intn(2) == 0 {
					nw = int64(rng.Intn(5)) // sharp decrease
				} else {
					nw = e.W + int64(1+rng.Intn(50)) // increase
				}
				if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: e.U, V: e.V, W: nw}}); err != nil {
					t.Fatal(err)
				}
				warm, err := s.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := runCold(cloneGraph(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) {
					t.Fatalf("batch %d: Dist mismatch (edge %d->%d w %d->%d)", b, e.U, e.V, e.W, nw)
				}
				if !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
					t.Fatalf("batch %d: LastHop mismatch (edge %d->%d w %d->%d)", b, e.U, e.V, e.W, nw)
				}
				if warm.Stats.Rounds != cold.Stats.Rounds || warm.Stats.QSize != cold.Stats.QSize {
					t.Fatalf("batch %d: rounds/|Q| warm %d/%d cold %d/%d (edge %d->%d w %d->%d)",
						b, warm.Stats.Rounds, warm.Stats.QSize, cold.Stats.Rounds, cold.Stats.QSize, e.U, e.V, e.W, nw)
				}
			}
		})
	}
}

// TestIncrementalBundleStress drives the damage model with parallel edge
// bundles: the adversarial chain-plus-shortcuts shape of
// TestIncrementalAdversarialStress with a heavier, lighter or equal twin
// on about half of its edges, some twins reversed on undirected graphs.
// Each batch moves the first member of a bundle up, down, or onto the
// weight of another member; warm must match cold in Dist, LastHop, rounds
// and |Q| every time. bford relaxes a bundle at its minimum weight, and
// the damage replay is a bford run, so these updates take the replay like
// any other.
func TestIncrementalBundleStress(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(10)
			directed := rng.Intn(2) == 0
			g := graph.New(n, directed)
			addWithTwins := func(u, v int, w int64) {
				g.MustAddEdge(u, v, w)
				for k := rng.Intn(3); k > 0; k-- {
					tw := max(0, w+int64(rng.Intn(5)-2))
					if !directed && rng.Intn(2) == 0 {
						g.MustAddEdge(v, u, tw)
					} else {
						g.MustAddEdge(u, v, tw)
					}
				}
			}
			for i := 0; i < n-1; i++ {
				addWithTwins(i, i+1, int64(1+rng.Intn(2)))
			}
			for k := 0; k < 3+rng.Intn(4); k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					addWithTwins(u, v, int64(1+rng.Intn(30)))
				}
			}
			opt := Options{Variant: Det43, H: 2 + rng.Intn(2)}
			s, err := NewSession(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(opt); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 3; b++ {
				// A bundle: the members joining the endpoints of a random
				// edge, in either orientation when undirected.
				edges := g.Edges()
				pick := edges[rng.Intn(len(edges))]
				var members []graph.Edge
				for _, e := range edges {
					if e.U == pick.U && e.V == pick.V || !directed && e.U == pick.V && e.V == pick.U {
						members = append(members, e)
					}
				}
				if len(members) < 2 {
					continue
				}
				first := edges[g.FindEdge(pick.U, pick.V)]
				var w int64
				switch rng.Intn(3) {
				case 0:
					w = first.W + int64(1+rng.Intn(20)) // up
				case 1:
					w = int64(rng.Intn(int(first.W) + 1)) // down, or unchanged
				default:
					w = members[rng.Intn(len(members))].W // a tie with a member
				}
				if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: pick.U, V: pick.V, W: w}}); err != nil {
					t.Fatal(err)
				}
				warm, err := s.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := runCold(cloneGraph(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
					t.Fatalf("batch %d: warm results differ from cold (bundle %d-%d, first member %d -> %d)", b, pick.U, pick.V, first.W, w)
				}
				if warm.Stats.Rounds != cold.Stats.Rounds || warm.Stats.QSize != cold.Stats.QSize {
					t.Fatalf("batch %d: rounds/|Q| warm %d/%d cold %d/%d (bundle %d-%d, first member %d -> %d)",
						b, warm.Stats.Rounds, warm.Stats.QSize, cold.Stats.Rounds, cold.Stats.QSize, pick.U, pick.V, first.W, w)
				}
			}
		})
	}
}

// TestDamageVerdictPerSystem checks the damage verdict system by system,
// over generated update streams with several batches between Runs. The
// graphs are the adversarial chain plus random shortcuts, with zero
// weights and parallel twins; the profile and h (0 for the default, up to
// 3) are drawn per seed. A batch sets 1-3 edges up, down, to zero or onto
// another edge's weight (SetWeight moves the first edge joining the
// endpoints, so a twin may stand in). After every batch, each system the
// snapshot leaves clean must re-run on a fresh network to its captured
// rows (checkCleanSystems); after every Run, warm must equal cold in Dist,
// LastHop, rounds, |Q| and h.
func TestDamageVerdictPerSystem(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	variants := []Variant{Det43, Det32, Rand43, BroadcastStep6}
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(14)
			directed := rng.Intn(2) == 0
			g := graph.New(n, directed)
			add := func(u, v int, w int64) {
				g.MustAddEdge(u, v, w)
				if rng.Intn(4) == 0 {
					tw := max(0, w+int64(rng.Intn(5)-2))
					if !directed && rng.Intn(2) == 0 {
						u, v = v, u
					}
					g.MustAddEdge(u, v, tw)
				}
			}
			for i := 0; i < n-1; i++ {
				add(i, i+1, int64(rng.Intn(3)))
			}
			for k := 0; k < 3+rng.Intn(n/2); k++ {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					add(u, v, int64(rng.Intn(40)))
				}
			}
			opt := Options{Variant: variants[rng.Intn(len(variants))], H: rng.Intn(4)}
			s, err := NewSession(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(opt); err != nil {
				t.Fatal(err)
			}
			captured := cloneGraph(g)
			for run := 0; run < 3; run++ {
				for b := 1 + rng.Intn(3); b > 0; b-- {
					edges := g.Edges()
					batch := make([]EdgeUpdate, 1+rng.Intn(3))
					for k := range batch {
						e := edges[rng.Intn(len(edges))]
						w := e.W + int64(1+rng.Intn(20)) // up
						switch rng.Intn(4) {
						case 0:
							w = int64(rng.Intn(int(e.W) + 1)) // down, or unchanged
						case 1:
							w = 0
						case 2:
							w = edges[rng.Intn(len(edges))].W // another edge's weight
						}
						batch[k] = EdgeUpdate{Op: SetWeight, U: e.U, V: e.V, W: w}
					}
					st, err := s.ApplyUpdates(batch)
					if err != nil {
						t.Fatal(err)
					}
					if !st.FellBack {
						checked += checkCleanSystems(t, s, captured)
					}
				}
				warm, err := s.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				captured = cloneGraph(g)
				cold, err := runCold(cloneGraph(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
					t.Fatalf("run %d: warm results differ from cold", run)
				}
				if warm.Stats.Rounds != cold.Stats.Rounds || warm.Stats.QSize != cold.Stats.QSize || warm.Stats.H != cold.Stats.H {
					t.Fatalf("run %d: warm rounds/|Q|/h (%d/%d/%d) != cold (%d/%d/%d)", run,
						warm.Stats.Rounds, warm.Stats.QSize, warm.Stats.H,
						cold.Stats.Rounds, cold.Stats.QSize, cold.Stats.H)
				}
			}
		})
	}
	t.Logf("%d clean systems checked", checked)
}

// checkCleanSystems re-runs, on a fresh network over a copy of the
// session's current graph, every label system the armed snapshot leaves
// clean, and fails unless it reproduces the captured rows:
//   - a Step-1 tree: its 2h-hop labels and hops, and the h-truncated
//     confirmed tree (Dist, Depth, Parent);
//   - a Step-3 in-system: its row and hops;
//   - the q-sink CQ systems, when the stage is clean: their labels and
//     hops, and their truncated trees, which the snapshot does not keep,
//     against a build on captured, the graph the snapshot was taken on;
//   - a Step-7 row: Dijkstra from its source.
//
// It returns the number of systems checked.
func checkCleanSystems(t *testing.T, s *Session, captured *graph.Graph) int {
	t.Helper()
	sn := &s.snap
	g := cloneGraph(s.g)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	was, err := congest.NewNetwork(captured, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(nw *congest.Network, root, h int, mode bford.Mode) *csssp.Collection {
		c, err := csssp.Build(nw, nw.G, []int{root}, h, mode)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	checked := 0
	coll := sn.coll
	for i, dirty := range sn.dirty1 {
		if dirty {
			continue
		}
		c := build(nw, coll.Sources[i], coll.H, coll.Mode)
		if !slices.Equal(c.Label[0], coll.Label[i]) || !slices.Equal(c.LabelHops[0], coll.LabelHops[i]) ||
			!slices.Equal(c.Dist[0], coll.Dist[i]) || !slices.Equal(c.Depth[0], coll.Depth[i]) ||
			!slices.Equal(c.Parent[0], coll.Parent[i]) {
			t.Fatalf("clean step-1 tree %d moved", i)
		}
		checked++
	}
	for ci, dirty := range sn.dirty3 {
		if dirty {
			continue
		}
		res, err := bford.RunLabels(nw, g, sn.Q[ci], sn.key.h, bford.In)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Dist, sn.deltaH.Row(ci)) || !slices.Equal(res.Hops, sn.deltaHops[ci]) {
			t.Fatalf("clean step-3 row %d (blocker %d) moved", ci, sn.Q[ci])
		}
		checked++
	}
	if !sn.qsinkDirty {
		for k, row := range sn.qsnap.Rows {
			if row.Hops == nil {
				continue
			}
			now, then := build(nw, row.Root, row.Bound/2, row.Mode), build(was, row.Root, row.Bound/2, row.Mode)
			if !slices.Equal(now.Label[0], row.Dist) || !slices.Equal(now.LabelHops[0], row.Hops) {
				t.Fatalf("clean q-sink row %d (root %d) moved", k, row.Root)
			}
			if !slices.Equal(now.Dist[0], then.Dist[0]) || !slices.Equal(now.Depth[0], then.Depth[0]) ||
				!slices.Equal(now.Parent[0], then.Parent[0]) {
				t.Fatalf("clean q-sink row %d (root %d): truncated tree moved", k, row.Root)
			}
			checked++
		}
	}
	n := g.N
	for x, dirty := range sn.dirty7 {
		if dirty {
			continue
		}
		if !slices.Equal(sn.distFlat[x*n:(x+1)*n], graph.Dijkstra(g, x)) {
			t.Fatalf("clean step-7 row %d differs from Dijkstra", x)
		}
		checked++
	}
	return checked
}

// TestDamageReplayComparesHops pins the replay's hop comparison. With
// h=2, source 0's Step-1 label system has a 4-hop bound: b sits at the end
// of a 4-hop zero-weight chain, so x is reached only by the 4-hop route
// 0->7->8->9->x of weight 6. Lowering a->b from 10 to 1 opens a second
// route of weight 6, 0->a->b->x, in 3 hops. No distance moves, and the
// distance screen stays quiet at a->b (D[a]+1 > D[b]), but x's hop count
// does: the system must be dirty.
func TestDamageReplayComparesHops(t *testing.T) {
	const a, b, x = 5, 4, 6
	g := graph.New(10, true)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 0) // 0->1->2->3->b
	}
	g.MustAddEdge(0, a, 5)
	g.MustAddEdge(a, b, 10) // the updated edge
	g.MustAddEdge(b, x, 0)
	g.MustAddEdge(0, 7, 1)
	g.MustAddEdge(7, 8, 1)
	g.MustAddEdge(8, 9, 1)
	g.MustAddEdge(9, x, 3)
	opt := Options{Variant: Det43, H: 2}
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(opt); err != nil {
		t.Fatal(err)
	}
	captured := cloneGraph(g)
	if got := s.snap.coll.LabelHops[0][x]; got != 4 {
		t.Fatalf("x's captured hop count is %d, want 4", got)
	}
	if _, err := s.ApplyUpdates([]EdgeUpdate{{Op: SetWeight, U: a, V: b, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if !s.snap.dirty1[0] {
		t.Fatal("source 0's label system moved only in hops and was left clean")
	}
	checkCleanSystems(t, s, captured)
}
