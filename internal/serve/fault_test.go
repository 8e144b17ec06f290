package serve

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"congestapsp/internal/faultinject"
	"congestapsp/pkg/apsp"
)

// TestServeFaultIsolation pins the daemon-path fault contract: a fault
// armed on one pooled Runner surfaces as a typed 5xx to the request whose
// batch hit it — and ONLY that request. Other pooled graphs are untouched,
// and the next run on the faulted Runner is bit-identical to cold (the
// session's panic isolation holds through the serving stack).
func TestServeFaultIsolation(t *testing.T) {
	svc, srv := testDaemon(t, Config{})
	const scen1, scen2 = "ring-n16-s1", "ring-n16-s2"
	key1 := loadScenario(t, srv, scen1)
	key2 := loadScenario(t, srv, scen2)

	inj := faultinject.New(0, faultinject.Rule{
		Hook: faultinject.HookRound, Round: 2, SubRun: -1,
		Kind: faultinject.Panic, Once: true,
	})
	if !svc.Pool().SetFaultInjector(key1, inj) {
		t.Fatal("key1 not pooled")
	}

	code, out := postRaw(t, srv, "/v1/graphs/"+key1+"/query", `{"full":true}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted query: got %d (%s) want 500", code, strings.TrimSpace(out))
	}
	if !strings.Contains(out, "recovered panic") {
		t.Errorf("faulted query error should name the recovered panic, got %s", strings.TrimSpace(out))
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired())
	}

	// The neighboring graph was never in the blast radius.
	cold2 := coldResult(t, scen2, apsp.Options{})
	var qr queryResponse
	if code := post(t, srv, "/v1/graphs/"+key2+"/query", queryRequest{Full: true}, &qr); code != http.StatusOK {
		t.Fatalf("other graph query: status %d", code)
	}
	for x := range qr.Matrix {
		for y, got := range qr.Matrix[x] {
			if want := wantWire(cold2.Dist[x][y]); got != want {
				t.Fatalf("other graph diverges at [%d][%d]", x, y)
			}
		}
	}

	// The faulted Runner's next batch is bit-identical to cold.
	cold1 := coldResult(t, scen1, apsp.Options{})
	if code := post(t, srv, "/v1/graphs/"+key1+"/query", queryRequest{Full: true}, &qr); code != http.StatusOK {
		t.Fatalf("recovery query: status %d", code)
	}
	if qr.Rounds != cold1.Stats.Rounds {
		t.Errorf("recovery rounds %d, cold %d", qr.Rounds, cold1.Stats.Rounds)
	}
	for x := range qr.Matrix {
		for y, got := range qr.Matrix[x] {
			if want := wantWire(cold1.Dist[x][y]); got != want {
				t.Fatalf("recovery answer diverges at [%d][%d]", x, y)
			}
		}
	}
}

// TestServeFaultBlamesOnlyItsCallers pins "exactly its callers"
// white-box: a coalesced query run holds two options groups; the fault
// fires during the first group's run, the second group's run is clean —
// so the first caller errors and the second gets its bit-exact answer
// from the SAME drained batch.
func TestServeFaultBlamesOnlyItsCallers(t *testing.T) {
	g := apsp.NewGraph(8, false)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8, int64(i+1))
	}
	p := NewPool(2, 16, 0, false, NewMetrics())
	key, _, err := p.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	e.runner.SetFaultInjector(faultinject.New(0, faultinject.Rule{
		Hook: faultinject.HookRound, Round: 1, SubRun: -1,
		Kind: faultinject.Panic, Once: true,
	}))

	a := &request{kind: kindQuery, ctx: context.Background(), opts: apsp.Options{Seed: 1}, done: make(chan struct{})}
	b := &request{kind: kindQuery, ctx: context.Background(), opts: apsp.Options{Seed: 2}, done: make(chan struct{})}
	e.serveQueries([]*request{a, b})

	var pe *apsp.PanicError
	if !errors.As(a.err, &pe) {
		t.Fatalf("first caller must get *apsp.PanicError, got %v", a.err)
	}
	if b.err != nil {
		t.Fatalf("second caller must be untouched by its batch-mate's fault, got %v", b.err)
	}
	cold, err := apsp.Run(mustCloneViaEdges(t, g), apsp.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for x := range cold.Dist {
		for y := range cold.Dist[x] {
			if b.res.Dist[x][y] != cold.Dist[x][y] {
				t.Fatalf("second caller's answer diverges at [%d][%d]", x, y)
			}
		}
	}
}

// TestServeFaultMatrixDaemon sweeps the fault matrix through the daemon
// path, on the query and the blocker endpoints: error and panic faults at
// assorted stages each surface as one typed 5xx, after which the same
// Runner serves a bit-exact answer. The blocker call runs stages 1 and 2
// only, so it takes the rules aimed at those stages or at any stage. This
// extends the core TestFaultMatrix contract (internal/core/fault_test.go)
// to the HTTP serving stack.
func TestServeFaultMatrixDaemon(t *testing.T) {
	cases := []faultinject.Rule{
		{Hook: faultinject.HookRound, Stage: "step1-csssp", Round: 3, SubRun: -1, Kind: faultinject.Panic, Once: true},
		{Hook: faultinject.HookRound, Stage: "step6-qsink", Round: faultinject.RoundAny, SubRun: -1, Kind: faultinject.Panic, Once: true},
		{Hook: faultinject.HookRound, Stage: "step3-insssp", Round: 0, SubRun: -1, Kind: faultinject.Error, Once: true},
		{Hook: faultinject.HookRound, Round: 10, SubRun: -1, Kind: faultinject.Error, Once: true},
		// Round 0 of step 2 runs outside any sharded sub-run: the panic
		// escapes the stage body and the executor recovers it.
		{Hook: faultinject.HookRound, Stage: "step2-blocker", Round: 0, SubRun: -1, Kind: faultinject.Panic, Once: true},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	const scen = "random-n24-s1"
	cold := coldResult(t, scen, apsp.Options{})
	sc, err := apsp.ParseScenario(scen)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	coldQ, coldB, err := apsp.BlockerSet(g, apsp.BlockerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rule := range cases {
		for _, ep := range []string{"query", "blocker"} {
			if ep == "blocker" && rule.Stage != "" && rule.Stage != "step1-csssp" && rule.Stage != "step2-blocker" {
				continue
			}
			svc, srv := testDaemon(t, Config{})
			key := loadScenario(t, srv, scen)
			if !svc.Pool().SetFaultInjector(key, faultinject.New(0, rule)) {
				t.Fatalf("case %d: key not pooled", i)
			}
			path, body := "/v1/graphs/"+key+"/"+ep, `{"full":true}`
			if ep == "blocker" {
				body = `{}`
			}
			code, out := postRaw(t, srv, path, body)
			if code != http.StatusInternalServerError {
				t.Fatalf("case %d /%s (%s at %s): got %d (%s) want 500", i, ep, rule.Kind, rule.Stage, code, strings.TrimSpace(out))
			}
			if rule.Kind == faultinject.Panic && !strings.Contains(out, "recovered panic in "+rule.Stage) {
				t.Fatalf("case %d /%s: error should name the recovered panic in %s, got %s", i, ep, rule.Stage, strings.TrimSpace(out))
			}
			if ep == "blocker" {
				var br blockerResponse
				if code := post(t, srv, path, blockerRequestWire{}, &br); code != http.StatusOK {
					t.Fatalf("case %d /blocker recovery: status %d", i, code)
				}
				if !reflect.DeepEqual(br.Q, coldQ) || br.Rounds != coldB.Rounds {
					t.Fatalf("case %d /blocker recovery: Q %v in %d rounds, cold %v in %d", i, br.Q, br.Rounds, coldQ, coldB.Rounds)
				}
				continue
			}
			var qr queryResponse
			if code := post(t, srv, path, queryRequest{Full: true}, &qr); code != http.StatusOK {
				t.Fatalf("case %d recovery: status %d", i, code)
			}
			if qr.Rounds != cold.Stats.Rounds {
				t.Errorf("case %d recovery rounds %d, cold %d", i, qr.Rounds, cold.Stats.Rounds)
			}
			for x := range qr.Matrix {
				for y, got := range qr.Matrix[x] {
					if want := wantWire(cold.Dist[x][y]); got != want {
						t.Fatalf("case %d recovery diverges at [%d][%d]", i, x, y)
					}
				}
			}
		}
	}
}

// mustCloneViaEdges rebuilds a graph through the public surface (the
// original is pinned to a Runner and must not be shared with apsp.Run).
func mustCloneViaEdges(t *testing.T, g *apsp.Graph) *apsp.Graph {
	t.Helper()
	c := apsp.NewGraph(g.N(), g.Directed())
	g.Edges(func(u, v int, w int64) {
		if err := c.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	})
	return c
}
