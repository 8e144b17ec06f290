package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"congestapsp/pkg/apsp"
)

// durableDaemon boots an httptest server over a durable Service rooted at
// dir (recovery included). Close the returned server before reopening the
// same dir.
func durableDaemon(t *testing.T, cfg Config, dir string, opt StoreOptions) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	svc.BeginRecovery()
	if err := svc.Recover(dir, opt); err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// scenarioEdges builds a scenario locally and returns its graph and edges
// (the update targets the tests mutate).
func scenarioEdges(t *testing.T, name string) (*apsp.Graph, [][3]int64) {
	t.Helper()
	sc, err := apsp.ParseScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var edges [][3]int64
	g.Edges(func(u, v int, w int64) { edges = append(edges, [3]int64{int64(u), int64(v), w}) })
	return g, edges
}

// setWeight posts one set-weight update and returns the response version.
func setWeight(t *testing.T, srv *httptest.Server, key string, u, v int, w int64) uint64 {
	t.Helper()
	body := fmt.Sprintf(`{"updates":[{"op":"set","u":%d,"v":%d,"w":%d}]}`, u, v, w)
	code, out := postRaw(t, srv, "/v1/graphs/"+key+"/update", body)
	if code != http.StatusOK {
		t.Fatalf("update (%d,%d)->%d: status %d: %s", u, v, w, code, out)
	}
	var ur updateResponse
	if err := jsonUnmarshal(out, &ur); err != nil {
		t.Fatalf("bad update response %q: %v", out, err)
	}
	return ur.Version
}

// graphStats fetches the per-graph snapshot.
func graphStats(t *testing.T, srv *httptest.Server, key string) EntryStats {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/graphs/" + key + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats %s: status %d: %s", key, resp.StatusCode, buf.String())
	}
	var st EntryStats
	if err := jsonUnmarshal(buf.String(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fullMatrix fetches the full distance matrix.
func fullMatrix(t *testing.T, srv *httptest.Server, key string) [][]int64 {
	t.Helper()
	var qr queryResponse
	if code := post(t, srv, "/v1/graphs/"+key+"/query", queryRequest{Full: true}, &qr); code != http.StatusOK {
		t.Fatalf("full query: status %d", code)
	}
	return qr.Matrix
}

// TestDurableRestartRecoversState is the in-process end of the crash
// contract: load, mutate, tear the daemon down, recover the same data dir
// — version, digest, and every matrix cell must come back bit-identical,
// and match a cold oracle on the same update prefix.
func TestDurableRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	const scen = "random-n24-s1"
	oracle, edges := scenarioEdges(t, scen)

	svc1 := New(Config{})
	if err := svc1.Recover(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	key := loadScenario(t, srv1, scen)
	for i := 0; i < 3; i++ {
		e := edges[i]
		w := int64(100 + i)
		setWeight(t, srv1, key, int(e[0]), int(e[1]), w)
		if err := oracle.ApplyUpdate(apsp.EdgeUpdate{Op: apsp.SetWeight, U: int(e[0]), V: int(e[1]), W: w}); err != nil {
			t.Fatal(err)
		}
	}
	st1 := graphStats(t, srv1, key)
	mat1 := fullMatrix(t, srv1, key)
	srv1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	if st1.Version != 3 {
		t.Fatalf("pre-restart version %d, want 3", st1.Version)
	}
	if st1.Digest != Key(oracle.Digest()) {
		t.Fatalf("pre-restart digest %s, oracle %s", st1.Digest, Key(oracle.Digest()))
	}

	_, srv2 := durableDaemon(t, Config{}, dir, StoreOptions{})
	st2 := graphStats(t, srv2, key)
	if st2.Version != st1.Version || st2.Digest != st1.Digest || st2.M != st1.M {
		t.Fatalf("recovered stats %+v, want %+v", st2, st1)
	}
	mat2 := fullMatrix(t, srv2, key)
	cold, err := apsp.Run(oracle, apsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := range mat2 {
		for v := range mat2[u] {
			if mat2[u][v] != mat1[u][v] {
				t.Fatalf("matrix[%d][%d] %d after recovery, %d before", u, v, mat2[u][v], mat1[u][v])
			}
			if mat2[u][v] != wireDist(cold.Dist[u][v]) {
				t.Fatalf("matrix[%d][%d] %d, cold oracle %d", u, v, mat2[u][v], wireDist(cold.Dist[u][v]))
			}
		}
	}

	// Re-loading the ORIGINAL content must converge on the recovered
	// lineage, not reset it: the version clock never goes backwards.
	var lr loadResponse
	if code := post(t, srv2, "/v1/graphs", loadRequest{Scenario: scen}, &lr); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if lr.Graph != key {
		t.Fatalf("reload landed on %s, want %s", lr.Graph, key)
	}
	if st := graphStats(t, srv2, key); st.Version != st1.Version {
		t.Fatalf("version regressed to %d after reload (was %d)", st.Version, st1.Version)
	}
}

// TestDurableEvictionRecoversFromDisk pins the evict-then-reaccess path: a
// durably evicted graph comes back from its journal at the version it had,
// not at zero.
func TestDurableEvictionRecoversFromDisk(t *testing.T) {
	dir := t.TempDir()
	svc, srv := durableDaemon(t, Config{PoolSize: 1}, dir, StoreOptions{})
	const scenA, scenB = "random-n16-s1", "random-n16-s2"
	_, edgesA := scenarioEdges(t, scenA)
	keyA := loadScenario(t, srv, scenA)
	setWeight(t, srv, keyA, int(edgesA[0][0]), int(edgesA[0][1]), 77)
	stA := graphStats(t, srv, keyA)

	// Wait for A's drain goroutine to go idle so the durable pool can evict
	// it when B loads (durable eviction refuses busy entries).
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.pool.mu.Lock()
		e := svc.pool.entries[keyA]
		svc.pool.mu.Unlock()
		if e != nil && e.idle() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never went idle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	loadScenario(t, srv, scenB)
	if n := svc.pool.Len(); n != 1 {
		t.Fatalf("pool holds %d entries, want 1 (A evicted)", n)
	}

	// Querying A recovers it from disk, version intact.
	st := graphStats(t, srv, keyA)
	if st.Version != stA.Version || st.Digest != stA.Digest {
		t.Fatalf("recovered %+v, want %+v", st, stA)
	}
	if got := svc.Metrics().Get("apspd_recovery_graphs_total"); got < 1 {
		t.Fatalf("recovery_graphs_total %d, want >= 1", got)
	}
}

// TestCheckpointTruncatesJournal drives past the checkpoint cadence and
// checks the protocol's observable state: a durable checkpoint file, a
// truncated journal holding only the post-checkpoint tail, and a recovery
// that lands on the identical graph.
func TestCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	const scen = "random-n16-s1"
	oracle, edges := scenarioEdges(t, scen)
	svc1 := New(Config{})
	if err := svc1.Recover(dir, StoreOptions{CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	key := loadScenario(t, srv1, scen)
	for i := 0; i < 5; i++ {
		e := edges[i%len(edges)]
		w := int64(10 + i)
		setWeight(t, srv1, key, int(e[0]), int(e[1]), w)
		oracle.ApplyUpdate(apsp.EdgeUpdate{Op: apsp.SetWeight, U: int(e[0]), V: int(e[1]), W: w})
	}
	// Checkpointing runs after the response is released; wait for cadence
	// (5 updates, every 2 -> 2 checkpoints) to land.
	deadline := time.Now().Add(5 * time.Second)
	for svc1.Metrics().Get("apspd_checkpoints_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoints_total stuck at %d", svc1.Metrics().Get("apspd_checkpoints_total"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, key, checkpointFile)); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, key, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn, derr := decodeJournalBytes(data)
	if derr != nil || torn {
		t.Fatalf("journal after checkpoint: torn=%v err=%v", torn, derr)
	}
	if len(recs) != 1 || recs[0].Kind != recordKindUpdate {
		t.Fatalf("journal holds %d records after truncation, want exactly the 1 post-checkpoint update", len(recs))
	}

	_, srv2 := durableDaemon(t, Config{}, dir, StoreOptions{CheckpointEvery: 2})
	st := graphStats(t, srv2, key)
	if st.Version != 5 {
		t.Fatalf("recovered version %d, want 5", st.Version)
	}
	if st.Digest != Key(oracle.Digest()) {
		t.Fatalf("recovered digest %s, oracle %s", st.Digest, Key(oracle.Digest()))
	}
}

// TestTornTailTruncatedOnRecovery simulates the one kind of damage a crash
// can leave — a torn final record — and checks recovery truncates it away
// and lands on the last intact version.
func TestTornTailTruncatedOnRecovery(t *testing.T) {
	for _, tail := range []struct {
		name string
		junk []byte
	}{
		{"garbage", []byte("\x00\x00\x00\x30garbage-that-is-not-a-frame")},
		{"half-frame", nil}, // filled below: a real frame cut in half
	} {
		t.Run(tail.name, func(t *testing.T) {
			dir := t.TempDir()
			const scen = "random-n16-s1"
			_, edges := scenarioEdges(t, scen)
			svc1 := New(Config{})
			if err := svc1.Recover(dir, StoreOptions{}); err != nil {
				t.Fatal(err)
			}
			srv1 := httptest.NewServer(svc1.Handler())
			key := loadScenario(t, srv1, scen)
			setWeight(t, srv1, key, int(edges[0][0]), int(edges[0][1]), 41)
			setWeight(t, srv1, key, int(edges[1][0]), int(edges[1][1]), 42)
			want := graphStats(t, srv1, key)
			srv1.Close()
			if err := svc1.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, key, journalFile)
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			junk := tail.junk
			if junk == nil {
				// The journal's own first frame cut off mid-payload: a
				// byte-exact torn record, exactly what a crashed append
				// leaves.
				junk = intact[:12]
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(junk)
			f.Close()

			svc2, srv2 := durableDaemon(t, Config{}, dir, StoreOptions{})
			st := graphStats(t, srv2, key)
			if st.Version != want.Version || st.Digest != want.Digest {
				t.Fatalf("recovered %+v, want %+v", st, want)
			}
			if got := svc2.Metrics().Get("apspd_recovery_torn_tails_total"); got != 1 {
				t.Fatalf("torn_tails_total %d, want 1", got)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(intact) {
				t.Fatalf("journal %d bytes after recovery, want truncated back to %d", len(after), len(intact))
			}
		})
	}
}

// TestReadinessGate pins the health-endpoint split: /healthz answers
// during recovery (liveness), /readyz and every /v1 route refuse with 503
// until recovery completes.
func TestReadinessGate(t *testing.T) {
	svc := New(Config{})
	svc.BeginRecovery()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during recovery: %d, want 200", code)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery: %d, want 503", code)
	}
	if !strings.Contains(body, `"ready":false`) {
		t.Fatalf("/readyz body %q lacks ready:false", body)
	}
	if code, _ := postRaw(t, srv, "/v1/graphs", `{"scenario":"random-n16-s1"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("/v1 during recovery: %d, want 503", code)
	}

	if err := svc.Recover(t.TempDir(), StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", code)
	}
	if code, _ := postRaw(t, srv, "/v1/graphs", `{"scenario":"random-n16-s1"}`); code != http.StatusOK {
		t.Fatalf("/v1 after recovery: %d, want 200", code)
	}
}

// TestLoadRetryBackoff drives RunLoad through a proxy that sheds the first
// two attempts of the first timed query (the second query, after the
// untimed warm-up) with 429: the seeded retry layer must absorb them and
// account for every attempt.
func TestLoadRetryBackoff(t *testing.T) {
	svc := New(Config{})
	inner := svc.Handler()
	var queries, shed int
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			if queries++; queries > 1 && shed < 2 {
				shed++
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":"synthetic shed"}`))
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	var transcript bytes.Buffer
	report, err := RunLoad(LoadConfig{
		BaseURL:    proxy.URL,
		Seed:       1,
		Mix:        "cached",
		Scenario:   "random-n16-s1",
		Requests:   3,
		Transcript: &transcript,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Retries != 2 || report.RetriedRequests != 1 {
		t.Fatalf("retries=%d retried_requests=%d, want 2/1", report.Retries, report.RetriedRequests)
	}
	if report.Status["200"] != 3 || report.Status["429"] != 0 {
		t.Fatalf("status census %v, want all three requests to end 200", report.Status)
	}
	if !strings.Contains(transcript.String(), "RETRIED 2\n") {
		t.Fatalf("transcript lacks RETRIED line:\n%s", transcript.String())
	}
}

// TestRetryDelayDeterministic pins the backoff schedule: a pure function
// of (seed, request, attempt), exponential in the attempt, never below the
// base step.
func TestRetryDelayDeterministic(t *testing.T) {
	base := 25 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		a := retryDelay(7, 3, attempt, base)
		b := retryDelay(7, 3, attempt, base)
		if a != b {
			t.Fatalf("attempt %d: %v vs %v (not deterministic)", attempt, a, b)
		}
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		lo, hi := base<<shift, base<<shift+base
		if a < lo || a >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, a, lo, hi)
		}
	}
	if retryDelay(1, 0, 0, base) == retryDelay(2, 0, 0, base) &&
		retryDelay(1, 1, 0, base) == retryDelay(2, 1, 0, base) {
		t.Fatal("jitter ignores the seed")
	}
}
