package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congestapsp/pkg/apsp"
)

// LoadConfig drives one load-generation run against a daemon. Everything
// the generator sends is a pure function of (Seed, Mix, Scenario,
// Requests): request i is the same bytes on every run, so a concurrency-1
// run against a fresh daemon produces a byte-stable transcript — the
// end-to-end determinism contract cmd/apspload and the serve tests pin.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8359".
	BaseURL string
	// Client is the HTTP client (http.DefaultClient when nil).
	Client *http.Client
	// Seed drives every random choice (pairs, edges, weights).
	Seed int64
	// Mix selects the traffic shape: "cached" (the warm-up's options set,
	// so the result cache answers every timed query), "warmmiss" (each
	// query cycles Options.Seed, forcing a fresh warm run per request), or
	// "postupdate" (seeded weight updates interleaved with queries).
	Mix string
	// Scenario is the graph, by corpus name (e.g. "random-n128-s1").
	Scenario string
	// Requests is the number of timed requests. They follow the initial
	// load and one untimed warm-up query with default options, which pays
	// the graph's first APSP run outside the sample.
	Requests int
	// Concurrency is the number of in-flight workers (forced to 1 when a
	// Transcript is set).
	Concurrency int
	// Transcript, when set, receives the deterministic request/response
	// log (method, path, request body, status, response body per entry).
	// Retried attempts each get their own entry, followed by a single
	// "RETRIED <n>" line; a run with no retries is byte-identical to one
	// generated before retries existed.
	Transcript io.Writer
	// Retries caps retry attempts per request on 429 (shed) and 503
	// (recovering) responses: 0 means the default (3), negative disables
	// retrying. Backoff is exponential with deterministic seeded jitter —
	// a pure function of (Seed, request index, attempt) — so retry
	// schedules reproduce run to run like everything else the generator
	// does.
	Retries int
	// RetryBase is the first backoff step (default 25ms); attempt k waits
	// RetryBase<<k plus jitter in [0, RetryBase).
	RetryBase time.Duration
}

// LoadReport summarizes a run: status-code census, retry counts and latency
// percentiles over the timed requests, plus the daemon-side pool counters
// scraped from /metrics after the run (those include the load and the
// warm-up query).
type LoadReport struct {
	Mix       string         `json:"mix"`
	Scenario  string         `json:"scenario"`
	Requests  int            `json:"requests"`
	Errors    int            `json:"errors"`
	Status    map[string]int `json:"status"`
	Status5xx int            `json:"status_5xx"`
	// Retries counts retry attempts across the run; RetriedRequests counts
	// requests that needed at least one. Latency percentiles include the
	// backoff a retried request waited through — the client-observed truth.
	Retries         int     `json:"retries"`
	RetriedRequests int     `json:"retried_requests"`
	P50MS           float64 `json:"p50_ms"`
	P95MS           float64 `json:"p95_ms"`
	P99MS           float64 `json:"p99_ms"`
	PoolHits        int64   `json:"pool_hits"`
	PoolMisses      int64   `json:"pool_misses"`
	// Durability labels the daemon's journaling mode for benchmark rows
	// ("" = in-memory, e.g. "fsync=interval"); set by the caller, carried
	// through to the JSON report.
	Durability string `json:"durability,omitempty"`
}

// genRequest is one pre-generated wire request.
type genRequest struct {
	path string
	body []byte
}

// Mixes lists the load shapes RunLoad accepts.
func Mixes() []string { return []string{"cached", "warmmiss", "postupdate"} }

// generate builds the deterministic request list for a mix. The graph's
// edge list (from building the scenario locally) seeds the update choices,
// so the generator never has to query the daemon for structure.
func generate(cfg LoadConfig, key string, n int, edges [][3]int64) ([]genRequest, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	queryPath := "/v1/graphs/" + key + "/query"
	updatePath := "/v1/graphs/" + key + "/update"
	randPairs := func(k int) [][2]int {
		ps := make([][2]int, k)
		for i := range ps {
			ps[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		return ps
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // wire shapes are always marshalable
		}
		return b
	}
	reqs := make([]genRequest, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		switch cfg.Mix {
		case "cached":
			reqs = append(reqs, genRequest{queryPath, marshal(queryRequest{Pairs: randPairs(4)})})
		case "warmmiss":
			// Seed is result-irrelevant for the deterministic default
			// profile but part of the cache key, so cycling it forces a
			// full warm run per request — the warm-miss latency floor.
			reqs = append(reqs, genRequest{queryPath, marshal(queryRequest{Seed: int64(i + 1), Pairs: randPairs(4)})})
		case "postupdate":
			if i%3 == 2 {
				e := edges[rng.Intn(len(edges))]
				var w updateRequestWire
				w.Updates = append(w.Updates, struct {
					Op string `json:"op"`
					U  int    `json:"u"`
					V  int    `json:"v"`
					W  int64  `json:"w,omitempty"`
				}{Op: "set", U: int(e[0]), V: int(e[1]), W: int64(1 + rng.Intn(50))})
				reqs = append(reqs, genRequest{updatePath, marshal(w)})
			} else {
				reqs = append(reqs, genRequest{queryPath, marshal(queryRequest{Pairs: randPairs(4)})})
			}
		default:
			return nil, fmt.Errorf("serve: unknown mix %q (want %s)", cfg.Mix, strings.Join(Mixes(), "|"))
		}
	}
	return reqs, nil
}

// RunLoad executes the configured load against the daemon and reports.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	if cfg.Transcript != nil {
		cfg.Concurrency = 1
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Scenario == "" {
		cfg.Scenario = "random-n64-s1"
	}
	post := func(path string, body []byte) (int, []byte, error) {
		resp, err := client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}

	// Build the scenario locally: the edge list parameterizes updates, and
	// the load request goes by name so daemon and generator agree on bytes.
	sc, err := apsp.ParseScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := sc.Build()
	if err != nil {
		return nil, err
	}
	n := g.N()
	var edges [][3]int64
	g.Edges(func(u, v int, w int64) { edges = append(edges, [3]int64{int64(u), int64(v), w}) })
	loadBody, _ := json.Marshal(loadRequest{Scenario: cfg.Scenario})
	code, out, err := post("/v1/graphs", loadBody)
	if err != nil {
		return nil, fmt.Errorf("serve: load request: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("serve: load returned %d: %s", code, bytes.TrimSpace(out))
	}
	var lr loadResponse
	if err := json.Unmarshal(out, &lr); err != nil {
		return nil, fmt.Errorf("serve: bad load response: %w", err)
	}
	if cfg.Transcript != nil {
		fmt.Fprintf(cfg.Transcript, "LOAD %s\n%s\n%d %s\n", cfg.Scenario, loadBody, code, out)
	}

	reqs, err := generate(cfg, lr.Graph, n, edges)
	if err != nil {
		return nil, err
	}

	report := &LoadReport{
		Mix:      cfg.Mix,
		Scenario: cfg.Scenario,
		Requests: len(reqs),
		Status:   make(map[string]int),
	}
	maxRetries := cfg.Retries
	if maxRetries == 0 {
		maxRetries = 3
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	retryBase := cfg.RetryBase
	if retryBase <= 0 {
		retryBase = 25 * time.Millisecond
	}
	// send posts request i (-1 for the warm-up) through the retry layer,
	// logging every attempt to the transcript, and returns the final
	// status and the number of retries it took.
	send := func(i int, req genRequest) (code, retries int, err error) {
		var out []byte
		for {
			code, out, err = post(req.path, req.body)
			if cfg.Transcript != nil {
				fmt.Fprintf(cfg.Transcript, "POST %s\n%s\n%d %s\n", req.path, req.body, code, out)
			}
			// Retry only what the daemon told us to come back for: 429
			// (shed) and 503 (recovering). Transport errors and every
			// other status are final.
			if err != nil || (code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable) || retries >= maxRetries {
				break
			}
			time.Sleep(retryDelay(cfg.Seed, i, retries, retryBase))
			retries++
		}
		if retries > 0 && cfg.Transcript != nil {
			fmt.Fprintf(cfg.Transcript, "RETRIED %d\n", retries)
		}
		return code, retries, err
	}

	// The warm-up: without it the first timed requests wait for the
	// graph's first APSP run, and a cached mix's p99 reads that run.
	warm := genRequest{"/v1/graphs/" + lr.Graph + "/query", []byte(`{"pairs":[[0,0]]}`)}
	if code, _, err := send(-1, warm); err != nil {
		return nil, fmt.Errorf("serve: warm-up query: %w", err)
	} else if code != http.StatusOK {
		return nil, fmt.Errorf("serve: warm-up query returned %d", code)
	}

	durations := make([]float64, len(reqs))
	codes := make([]int, len(reqs))
	errorsAt := make([]error, len(reqs))
	retriesAt := make([]int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += cfg.Concurrency {
				t0 := time.Now()
				codes[i], retriesAt[i], errorsAt[i] = send(i, reqs[i])
				durations[i] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}(w)
	}
	wg.Wait()
	for i := range reqs {
		report.Retries += retriesAt[i]
		if retriesAt[i] > 0 {
			report.RetriedRequests++
		}
		if errorsAt[i] != nil {
			report.Errors++
			continue
		}
		report.Status[strconv.Itoa(codes[i])]++
		if codes[i] >= 500 && codes[i] != 504 {
			report.Status5xx++
		}
	}
	sort.Float64s(durations)
	report.P50MS = percentile(durations, 0.50)
	report.P95MS = percentile(durations, 0.95)
	report.P99MS = percentile(durations, 0.99)

	// Scrape the daemon's pool counters.
	if resp, err := client.Get(cfg.BaseURL + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		report.PoolHits = scrapeCounter(body, "apspd_pool_hits_total")
		report.PoolMisses = scrapeCounter(body, "apspd_pool_misses_total")
	}
	return report, nil
}

// retryDelay is the backoff before retry attempt k of request i:
// base<<k plus a deterministic jitter in [0, base) hashed from
// (seed, i, k) — a pure function, so a seeded run's retry schedule (and
// therefore its latency distribution under overload) reproduces exactly.
// The shift caps at 6 (64× base) to bound the wait however many attempts
// are configured.
func retryDelay(seed int64, i, attempt int, base time.Duration) time.Duration {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(attempt)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return base<<shift + time.Duration(h%uint64(base))
}

// percentile reads the q-quantile from an ascending slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.9999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scrapeCounter pulls one un-labeled series value out of Prometheus text.
func scrapeCounter(body []byte, series string) int64 {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}
