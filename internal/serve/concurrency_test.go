package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"congestapsp/pkg/apsp"
)

// TestServeLinearizable is the concurrency contract test (run under
// -race in CI): one pooled Runner takes mixed query/update traffic from
// many goroutines, and every answer must be a linearizable snapshot —
// bit-identical to a cold apsp.Run on the exact graph version the
// response names. The updater applies batches sequentially (so version k
// is a known edge state); query workers hammer concurrently and record
// (version, matrix) observations, verified against cold oracles after the
// fact.
func TestServeLinearizable(t *testing.T) {
	const scen = "random-n24-s3"
	_, srv := testDaemon(t, Config{})
	key := loadScenario(t, srv, scen)

	sc, _ := apsp.ParseScenario(scen)
	g, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		u, v int
		w    int64
	}
	var mirror []edge
	g.Edges(func(u, v int, w int64) { mirror = append(mirror, edge{u, v, w}) })
	n := g.N()

	// states[v] is the edge list after update batch v (0 = as loaded).
	states := map[uint64][]edge{0: append([]edge(nil), mirror...)}
	var statesMu sync.Mutex

	updates := 6
	queriesPerWorker := 8
	workers := 3
	if testing.Short() {
		updates, queriesPerWorker, workers = 3, 4, 2
	}

	type obs struct {
		version uint64
		matrix  [][]int64
	}
	observed := make([][]obs, workers)

	var wg sync.WaitGroup
	// Updater: sequential seeded set-weight batches; version k recorded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for k := 0; k < updates; k++ {
			i := rng.Intn(len(mirror))
			w := int64(1 + rng.Intn(50))
			body := fmt.Sprintf(`{"updates":[{"op":"set","u":%d,"v":%d,"w":%d}]}`, mirror[i].u, mirror[i].v, w)
			code, out := postRaw(t, srv, "/v1/graphs/"+key+"/update", body)
			if code != http.StatusOK {
				t.Errorf("update %d: status %d: %s", k, code, out)
				return
			}
			var ur updateResponse
			if err := jsonUnmarshal(out, &ur); err != nil {
				t.Error(err)
				return
			}
			// SetWeight patches the FIRST matching edge (either
			// orientation on undirected graphs) — mirror the same rule.
			for j := range mirror {
				if (mirror[j].u == mirror[i].u && mirror[j].v == mirror[i].v) ||
					(mirror[j].u == mirror[i].v && mirror[j].v == mirror[i].u) {
					mirror[j].w = w
					break
				}
			}
			statesMu.Lock()
			states[ur.Version] = append([]edge(nil), mirror...)
			statesMu.Unlock()
		}
	}()
	// Query workers: concurrent full-matrix queries, observations recorded.
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for q := 0; q < queriesPerWorker; q++ {
				var qr queryResponse
				if code := post(t, srv, "/v1/graphs/"+key+"/query", queryRequest{Full: true}, &qr); code != http.StatusOK {
					t.Errorf("worker %d query %d: status %d", wk, q, code)
					return
				}
				observed[wk] = append(observed[wk], obs{qr.Version, qr.Matrix})
			}
		}(wk)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Verify every observation against a cold run on its named version.
	oracles := map[uint64][][]int64{}
	oracle := func(v uint64) [][]int64 {
		if m, ok := oracles[v]; ok {
			return m
		}
		es, ok := states[v]
		if !ok {
			t.Fatalf("response named version %d, but no update batch produced it", v)
		}
		og := apsp.NewGraph(n, false)
		for _, e := range es {
			og.AddEdge(e.u, e.v, e.w)
		}
		res, err := apsp.Run(og, apsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := make([][]int64, n)
		for x := range m {
			m[x] = make([]int64, n)
			for y := range m[x] {
				m[x][y] = wireDist(res.Dist[x][y])
			}
		}
		oracles[v] = m
		return m
	}
	checked := 0
	for wk := range observed {
		for _, o := range observed[wk] {
			want := oracle(o.version)
			for x := range o.matrix {
				for y := range o.matrix[x] {
					if o.matrix[x][y] != want[x][y] {
						t.Fatalf("worker %d at version %d: matrix[%d][%d] = %d, cold run says %d",
							wk, o.version, x, y, o.matrix[x][y], want[x][y])
					}
				}
			}
			checked++
		}
	}
	if checked != workers*queriesPerWorker {
		t.Fatalf("verified %d observations, want %d", checked, workers*queriesPerWorker)
	}
}

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

// TestServeEviction checks the LRU cap end to end: the pool sheds the
// least-recently-used Runner, evicted keys 404, and a reload (content
// addressing) lands back on the same key.
func TestServeEviction(t *testing.T) {
	svc, srv := testDaemon(t, Config{PoolSize: 2})
	keyA := loadScenario(t, srv, "ring-n16-s1")
	keyB := loadScenario(t, srv, "ring-n16-s2")
	post(t, srv, "/v1/graphs/"+keyA+"/query", queryRequest{Full: true}, nil) // A is now MRU
	keyC := loadScenario(t, srv, "ring-n16-s3")                              // evicts B

	if code, _ := postRaw(t, srv, "/v1/graphs/"+keyB+"/query", `{"full":true}`); code != http.StatusNotFound {
		t.Errorf("evicted graph: got %d want 404", code)
	}
	for _, k := range []string{keyA, keyC} {
		if code, out := postRaw(t, srv, "/v1/graphs/"+k+"/query", `{"full":true}`); code != http.StatusOK {
			t.Errorf("surviving graph %s: got %d (%s)", k, code, out)
		}
	}
	if keyB2 := loadScenario(t, srv, "ring-n16-s2"); keyB2 != keyB {
		t.Errorf("reload landed on %s, want original key %s", keyB2, keyB)
	}
	if got := svc.Metrics().Get("apspd_pool_evictions_total"); got < 2 {
		t.Errorf("evictions counter %d, want >= 2", got)
	}
	if svc.Pool().Len() != 2 {
		t.Errorf("pool size %d, want 2", svc.Pool().Len())
	}
}

// TestServeByteBudgetEviction checks the -max-bytes budget: with a byte
// budget that admits one n=16 graph (16²·16 = 4096 approximate bytes cold)
// but not two, loading a second graph evicts the first even though the
// entry-count cap would hold both, and the apspd_pool_bytes gauge tracks
// the surviving footprint (result matrices plus warm-arena high water).
func TestServeByteBudgetEviction(t *testing.T) {
	svc, srv := testDaemon(t, Config{PoolSize: 8, MaxBytes: 6000})
	keyA := loadScenario(t, srv, "ring-n16-s1")
	keyB := loadScenario(t, srv, "ring-n16-s2") // 8192 > 6000: evicts A
	if code, _ := postRaw(t, srv, "/v1/graphs/"+keyA+"/query", `{"full":true}`); code != http.StatusNotFound {
		t.Errorf("byte-budget-evicted graph: got %d want 404", code)
	}
	if svc.Pool().Len() != 1 {
		t.Fatalf("pool size %d, want 1 (entry cap is 8; the byte budget must evict)", svc.Pool().Len())
	}
	if got := svc.Metrics().Get("apspd_pool_evictions_total"); got < 1 {
		t.Errorf("evictions counter %d, want >= 1", got)
	}
	if got := svc.Metrics().GetGauge("apspd_pool_bytes"); got < 4096 || got > 6000 {
		t.Errorf("pool bytes gauge %d, want within (4096, 6000] after eviction", got)
	}
	// A warm run grows the Runner's arenas; the drain cycle republishes the
	// footprint, so the gauge must rise past the cold matrix-only estimate.
	// The republish happens just after the waiter is released, hence the
	// bounded wait.
	post(t, srv, "/v1/graphs/"+keyB+"/query", queryRequest{Full: true}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().GetGauge("apspd_pool_bytes") <= 4096 {
		if time.Now().After(deadline) {
			t.Fatalf("pool bytes gauge %d after a warm run, want > 4096 (arena high water uncounted?)",
				svc.Metrics().GetGauge("apspd_pool_bytes"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeEvictionUnderLoad checks that eviction is non-disruptive: a
// batch in flight on an evicted entry drains normally on the warm Runner
// (eviction only unlinks the key), and only later lookups 404.
func TestServeEvictionUnderLoad(t *testing.T) {
	svc, srv := testDaemon(t, Config{PoolSize: 1})
	const scen = "random-n24-s1"
	keyA := loadScenario(t, srv, scen)
	e, err := svc.Pool().Get(keyA)
	if err != nil {
		t.Fatal(err)
	}
	// Evict A by loading B into the size-1 pool.
	loadScenario(t, srv, "ring-n16-s1")
	if _, err := svc.Pool().Get(keyA); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("expected ErrUnknownGraph after eviction, got %v", err)
	}
	// The held entry still serves, bit-identical to cold.
	req := &request{kind: kindQuery, ctx: context.Background(), done: make(chan struct{})}
	if err := e.submit(req); err != nil {
		t.Fatalf("in-flight query on evicted entry: %v", err)
	}
	cold := coldResult(t, scen, apsp.Options{})
	for x := range cold.Dist {
		for y := range cold.Dist[x] {
			if req.res.Dist[x][y] != cold.Dist[x][y] {
				t.Fatalf("evicted-entry answer diverges at [%d][%d]", x, y)
			}
		}
	}
}

// TestServeShedding checks the 429 path: with a queue cap of 1 and the
// drain goroutine busy, excess concurrent traffic is shed, and shed
// requests were never executed (the version clock does not move).
func TestServeShedding(t *testing.T) {
	svc, srv := testDaemon(t, Config{MaxQueue: 1})
	key := loadScenario(t, srv, "random-n32-s1")

	var wg sync.WaitGroup
	var got429 int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat the result cache so each query is a
			// real run, keeping the drain goroutine busy long enough for
			// the queue to fill.
			body := fmt.Sprintf(`{"full":true,"seed":%d}`, i)
			code, _ := postRaw(t, srv, "/v1/graphs/"+key+"/query", body)
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				got429++
			default:
				t.Errorf("unexpected status %d", code)
			}
		}(i)
	}
	wg.Wait()
	if got429 == 0 {
		t.Skip("scheduler never filled the 1-deep queue (single-CPU timing); shed path covered by metrics test")
	}
	if shed := svc.Metrics().Get("apspd_shed_total"); shed != int64(got429) {
		t.Errorf("shed counter %d, clients saw %d 429s", shed, got429)
	}
}

// TestBatcherBlameSplit pins the lowest-failing-index contract of
// coalesced updates, white-box: three callers' batches concatenate into
// one ApplyUpdates call; the failure in the middle caller's batch is
// rebased into its own index space, callers before it succeed with their
// updates applied, callers after it are aborted untouched.
func TestBatcherBlameSplit(t *testing.T) {
	g := apsp.NewGraph(4, false)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 7)
	g.AddEdge(2, 3, 9)
	p := NewPool(2, 16, 0, false, NewMetrics())
	key, _, err := p.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ups ...apsp.EdgeUpdate) *request {
		return &request{kind: kindUpdate, ctx: context.Background(), ups: ups, done: make(chan struct{})}
	}
	set := func(u, v int, w int64) apsp.EdgeUpdate {
		return apsp.EdgeUpdate{Op: apsp.SetWeight, U: u, V: v, W: w}
	}
	a := mk(set(0, 1, 50))
	b := mk(set(1, 2, 70), set(0, 3, 1), set(2, 3, 90)) // (0,3) does not exist
	c := mk(set(2, 3, 99))
	e.applyCoalesced([]*request{a, b, c})

	if a.err != nil {
		t.Errorf("caller A (before the failure) must succeed, got %v", a.err)
	}
	var ue *apsp.UpdateError
	if !errors.As(b.err, &ue) {
		t.Fatalf("caller B must get *apsp.UpdateError, got %v", b.err)
	}
	if ue.Index != 1 {
		t.Errorf("B's error index must be rebased to 1 (its own batch), got %d", ue.Index)
	}
	if !errors.Is(c.err, ErrAborted) {
		t.Errorf("caller C (after the failure) must get ErrAborted, got %v", c.err)
	}

	// Applied prefix: A's update and B's first; nothing after the failure.
	want := map[[2]int]int64{{0, 1}: 50, {1, 2}: 70, {2, 3}: 9}
	e.runner.Graph().Edges(func(u, v int, w int64) {
		if exp := want[[2]int{u, v}]; w != exp {
			t.Errorf("edge (%d,%d) weight %d, want %d", u, v, w, exp)
		}
	})

	// The runner must still serve, consistently with the partial prefix.
	q := &request{kind: kindQuery, ctx: context.Background(), done: make(chan struct{})}
	if err := e.submit(q); err != nil {
		t.Fatalf("query after failed batch: %v", err)
	}
	og := apsp.NewGraph(4, false)
	og.AddEdge(0, 1, 50)
	og.AddEdge(1, 2, 70)
	og.AddEdge(2, 3, 9)
	cold, err := apsp.Run(og, apsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range cold.Dist {
		for y := range cold.Dist[x] {
			if q.res.Dist[x][y] != cold.Dist[x][y] {
				t.Fatalf("post-failure answer diverges at [%d][%d]", x, y)
			}
		}
	}
}
