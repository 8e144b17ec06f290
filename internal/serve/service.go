package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestapsp/pkg/apsp"
)

// Config sizes the daemon. The zero value picks the documented defaults.
type Config struct {
	// PoolSize caps the warm-Runner pool (default 8).
	PoolSize int
	// MaxQueue caps each graph's batch queue; requests beyond it are shed
	// with HTTP 429 (default 256).
	MaxQueue int
	// MaxBatch caps client-controlled list sizes — query pairs, updates
	// per request, edges per loaded graph is MaxBatch*8 (default 4096).
	MaxBatch int
	// MaxGraphN caps loaded graph sizes (default 4096).
	MaxGraphN int
	// Parallel runs pooled computations on the worker-pool execution mode
	// (bit-identical results; a throughput knob only).
	Parallel bool
	// MaxBytes, when > 0, is a second pool-eviction budget over the
	// approximate per-entry byte footprint (n² result matrices + warm-arena
	// high water), enforced alongside the PoolSize entry-count LRU and
	// exported as the apspd_pool_bytes gauge.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxGraphN <= 0 {
		c.MaxGraphN = 4096
	}
	return c
}

// Service is the HTTP front end: a mux over the pool and its batchers.
//
//	POST /v1/graphs                  load a graph (inline edges or scenario)
//	POST /v1/graphs/{key}/query      distances / paths (batched + cached)
//	POST /v1/graphs/{key}/update     ApplyUpdates (coalesced)
//	POST /v1/graphs/{key}/blocker    blocker-set construction
//	GET  /v1/graphs/{key}/stats      per-graph snapshot
//	GET  /metrics                    Prometheus text format
//	GET  /healthz                    liveness (process up; nothing else)
//	GET  /readyz                     readiness (503 + progress during recovery)
type Service struct {
	cfg  Config
	pool *Pool
	met  *Metrics
	mux  *http.ServeMux

	// Durability state (nil/true without -data-dir): the store is opened by
	// Recover, and ready gates /v1 traffic while boot recovery replays.
	store *Store
	ready atomic.Bool
	recMu sync.Mutex
	prog  RecoveryProgress
}

// New builds a Service with its own pool and metrics registry. The service
// starts ready; a durable daemon calls BeginRecovery + Recover before
// serving /v1 traffic.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	met := NewMetrics()
	s := &Service{
		cfg:  cfg,
		pool: NewPool(cfg.PoolSize, cfg.MaxQueue, cfg.MaxBytes, cfg.Parallel, met),
		met:  met,
		mux:  http.NewServeMux(),
	}
	s.ready.Store(true)
	met.Set("apspd_ready", 1)
	s.mux.HandleFunc("POST /v1/graphs", s.handleLoad)
	s.mux.HandleFunc("POST /v1/graphs/{key}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/graphs/{key}/update", s.handleUpdate)
	s.mux.HandleFunc("POST /v1/graphs/{key}/blocker", s.handleBlocker)
	s.mux.HandleFunc("GET /v1/graphs/{key}/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: answers as long as the process serves HTTP, even
		// mid-recovery. Readiness lives at /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		p := s.Progress()
		code := http.StatusOK
		if !p.Ready {
			code = http.StatusServiceUnavailable
		}
		s.writeJSON(w, code, p)
	})
	return s
}

// Handler is the daemon's root handler: status-code accounting, plus the
// readiness gate — while boot recovery replays, every /v1 request is
// refused with 503 and the recovery progress (the state the request would
// observe is not yet proven), while /healthz, /readyz and /metrics stay up.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
		if !s.ready.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
			s.writeJSON(rec, http.StatusServiceUnavailable, s.Progress())
		} else {
			s.mux.ServeHTTP(rec, r)
		}
		s.met.Add(fmt.Sprintf("apspd_http_requests_total{code=\"%d\"}", rec.code), 1)
	})
}

// Pool exposes the warm-Runner pool (tests and the fault-matrix suites).
func (s *Service) Pool() *Pool { return s.pool }

// Metrics exposes the instrumentation registry.
func (s *Service) Metrics() *Metrics { return s.met }

type codeRecorder struct {
	http.ResponseWriter
	code    int
	written bool
}

func (c *codeRecorder) WriteHeader(code int) {
	if !c.written {
		c.code = code
		c.written = true
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *codeRecorder) Write(b []byte) (int, error) {
	c.written = true
	return c.ResponseWriter.Write(b)
}

// ---- wire shapes ----------------------------------------------------------

// loadRequest loads a graph into the pool: either an inline edge list or a
// named scenario from the deterministic corpus (exactly one of the two).
type loadRequest struct {
	Scenario string     `json:"scenario,omitempty"`
	N        int        `json:"n,omitempty"`
	Directed bool       `json:"directed,omitempty"`
	Edges    [][3]int64 `json:"edges,omitempty"`
}

type loadResponse struct {
	Graph    string `json:"graph"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Directed bool   `json:"directed"`
	Created  bool   `json:"created"`
}

// queryRequest asks for shortest-path answers under one options set.
// Exactly one selector — pairs, source, or full — must be present.
type queryRequest struct {
	Algorithm  string   `json:"algorithm,omitempty"` // det43|det32|rand43|bcast6 ("" = det43)
	HopParam   int      `json:"hop_param,omitempty"`
	Bandwidth  int      `json:"bandwidth,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Pairs      [][2]int `json:"pairs,omitempty"`
	Source     *int     `json:"source,omitempty"`
	Full       bool     `json:"full,omitempty"`
	Paths      bool     `json:"paths,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

type queryResponse struct {
	Graph     string    `json:"graph"`
	Version   uint64    `json:"version"`
	Cached    bool      `json:"cached"`
	Algorithm string    `json:"algorithm"`
	Rounds    int       `json:"rounds"`
	HopParam  int       `json:"h"`
	Blocker   int       `json:"blocker_size"`
	Dist      []int64   `json:"dist,omitempty"`
	Paths     [][]int   `json:"paths,omitempty"`
	Row       []int64   `json:"row,omitempty"`
	Matrix    [][]int64 `json:"matrix,omitempty"`
}

type updateRequestWire struct {
	Updates []struct {
		Op string `json:"op"` // set | insert | delete
		U  int    `json:"u"`
		V  int    `json:"v"`
		W  int64  `json:"w,omitempty"`
	} `json:"updates"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type updateResponse struct {
	Graph      string `json:"graph"`
	Version    uint64 `json:"version"`
	Applied    int    `json:"applied"`
	Reused     int    `json:"reused"`
	Recomputed int    `json:"recomputed"`
	FellBack   bool   `json:"fell_back"`
}

type blockerRequestWire struct {
	HopParam   int    `json:"hop_param,omitempty"`
	Mode       string `json:"mode,omitempty"` // deterministic | random | greedy
	Seed       int64  `json:"seed,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

type blockerResponse struct {
	Graph   string `json:"graph"`
	Version uint64 `json:"version"`
	Q       []int  `json:"q"`
	Rounds  int    `json:"rounds"`
}

type errorResponse struct {
	Error       string `json:"error"`
	UpdateIndex *int   `json:"update_index,omitempty"`
}

// wireDist maps internal distances onto the wire: unreachable (graph.Inf)
// becomes -1, so clients never parse a 62-bit sentinel.
func wireDist(d int64) int64 {
	if d >= apsp.Inf {
		return -1
	}
	return d
}

// ---- decoding + validation ------------------------------------------------

// decodeQueryRequest parses and validates a query body against a graph of
// n vertices and the service's batch cap. It is the FuzzQueryRequest
// target: pure, deterministic, and total (any input returns a request or
// an error, never a panic).
func decodeQueryRequest(body []byte, n, maxBatch int) (*queryRequest, apsp.Options, error) {
	var q queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return nil, apsp.Options{}, fmt.Errorf("bad query body: %w", err)
	}
	var opt apsp.Options
	if q.Algorithm != "" {
		alg, err := apsp.ParseAlgorithm(q.Algorithm)
		if err != nil {
			return nil, apsp.Options{}, err
		}
		opt.Algorithm = alg
	}
	if q.HopParam < 0 || q.HopParam > n {
		return nil, apsp.Options{}, fmt.Errorf("hop_param %d out of range [0, %d]", q.HopParam, n)
	}
	if q.Bandwidth < 0 || q.Bandwidth > 1<<20 {
		return nil, apsp.Options{}, fmt.Errorf("bandwidth %d out of range", q.Bandwidth)
	}
	if q.DeadlineMS < 0 {
		return nil, apsp.Options{}, fmt.Errorf("deadline_ms %d is negative", q.DeadlineMS)
	}
	opt.HopParam, opt.Bandwidth, opt.Seed = q.HopParam, q.Bandwidth, q.Seed
	selectors := 0
	if len(q.Pairs) > 0 {
		selectors++
	}
	if q.Source != nil {
		selectors++
	}
	if q.Full {
		selectors++
	}
	if selectors != 1 {
		return nil, apsp.Options{}, fmt.Errorf("exactly one of pairs, source, full must be set (got %d)", selectors)
	}
	if len(q.Pairs) > maxBatch {
		return nil, apsp.Options{}, fmt.Errorf("pairs batch %d exceeds cap %d", len(q.Pairs), maxBatch)
	}
	for i, p := range q.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, apsp.Options{}, fmt.Errorf("pair %d (%d,%d) out of range [0,%d)", i, p[0], p[1], n)
		}
	}
	if q.Source != nil && (*q.Source < 0 || *q.Source >= n) {
		return nil, apsp.Options{}, fmt.Errorf("source %d out of range [0,%d)", *q.Source, n)
	}
	if q.Paths && len(q.Pairs) == 0 {
		return nil, apsp.Options{}, fmt.Errorf("paths requires pairs")
	}
	return &q, opt, nil
}

func decodeUpdateRequest(body []byte, n, maxBatch int) ([]apsp.EdgeUpdate, int64, error) {
	var u updateRequestWire
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		return nil, 0, fmt.Errorf("bad update body: %w", err)
	}
	if u.DeadlineMS < 0 {
		return nil, 0, fmt.Errorf("deadline_ms %d is negative", u.DeadlineMS)
	}
	if len(u.Updates) == 0 {
		return nil, 0, fmt.Errorf("empty update batch")
	}
	if len(u.Updates) > maxBatch {
		return nil, 0, fmt.Errorf("update batch %d exceeds cap %d", len(u.Updates), maxBatch)
	}
	ups := make([]apsp.EdgeUpdate, len(u.Updates))
	for i, w := range u.Updates {
		var op apsp.UpdateOp
		switch w.Op {
		case "set", "set-weight", "w":
			op = apsp.SetWeight
		case "insert", "a":
			op = apsp.InsertEdge
		case "delete", "d":
			op = apsp.DeleteEdge
		default:
			return nil, 0, fmt.Errorf("update %d: unknown op %q (want set|insert|delete)", i, w.Op)
		}
		if w.U < 0 || w.U >= n || w.V < 0 || w.V >= n {
			return nil, 0, fmt.Errorf("update %d: edge (%d,%d) out of range [0,%d)", i, w.U, w.V, n)
		}
		if op != apsp.DeleteEdge && w.W < 0 {
			return nil, 0, fmt.Errorf("update %d: negative weight %d", i, w.W)
		}
		ups[i] = apsp.EdgeUpdate{Op: op, U: w.U, V: w.V, W: w.W}
	}
	return ups, u.DeadlineMS, nil
}

// ---- handlers -------------------------------------------------------------

func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc, _ := json.Marshal(v)
	w.Write(append(enc, '\n'))
}

// writeErr maps the serving error taxonomy onto status codes: shed → 429,
// unknown graph → 404, batch-mate abort → 409, bad update → 400 (with the
// caller-relative index), deadline → 504, panic/internal → 500.
func (s *Service) writeErr(w http.ResponseWriter, err error) {
	resp := errorResponse{Error: err.Error()}
	code := http.StatusInternalServerError
	var ue *apsp.UpdateError
	switch {
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownGraph):
		code = http.StatusNotFound
	case errors.Is(err, ErrAborted):
		code = http.StatusConflict
	case errors.As(err, &ue):
		code = http.StatusBadRequest
		resp.UpdateIndex = &ue.Index
	case errors.Is(err, apsp.ErrDeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, apsp.ErrCanceled):
		code = 499 // client closed request (nginx convention)
	}
	s.writeJSON(w, code, resp)
}

func (s *Service) badRequest(w http.ResponseWriter, err error) {
	s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	limited := http.MaxBytesReader(w, r.Body, 16<<20)
	if _, err := buf.ReadFrom(limited); err != nil {
		s.badRequest(w, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *Service) handleLoad(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req loadRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("bad load body: %w", err))
		return
	}
	var g *apsp.Graph
	switch {
	case req.Scenario != "" && (req.N != 0 || len(req.Edges) != 0):
		s.badRequest(w, fmt.Errorf("scenario and inline edges are mutually exclusive"))
		return
	case req.Scenario != "":
		sc, err := apsp.ParseScenario(req.Scenario)
		if err != nil {
			s.badRequest(w, err)
			return
		}
		if sc.N > s.cfg.MaxGraphN {
			s.badRequest(w, fmt.Errorf("scenario n %d exceeds cap %d", sc.N, s.cfg.MaxGraphN))
			return
		}
		g, err = sc.Build()
		if err != nil {
			s.badRequest(w, err)
			return
		}
	default:
		if req.N < 1 || req.N > s.cfg.MaxGraphN {
			s.badRequest(w, fmt.Errorf("n %d out of range [1, %d]", req.N, s.cfg.MaxGraphN))
			return
		}
		if len(req.Edges) > s.cfg.MaxBatch*8 {
			s.badRequest(w, fmt.Errorf("edge list %d exceeds cap %d", len(req.Edges), s.cfg.MaxBatch*8))
			return
		}
		g = apsp.NewGraph(req.N, req.Directed)
		for i, e := range req.Edges {
			u, v, wt := int(e[0]), int(e[1]), e[2]
			if err := g.AddEdge(u, v, wt); err != nil {
				s.badRequest(w, fmt.Errorf("edge %d: %w", i, err))
				return
			}
		}
	}
	key, created, err := s.pool.LoadOrigin(g, req.Scenario)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	e, err := s.pool.Get(key)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	st := e.Stats()
	s.writeJSON(w, http.StatusOK, loadResponse{
		Graph: key, N: st.N, M: st.M, Directed: g.Directed(), Created: created,
	})
}

// requestContext applies the wire deadline to the HTTP request context.
func requestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	if deadlineMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(deadlineMS)*time.Millisecond)
	}
	return r.Context(), func() {}
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Get(r.PathValue("key"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	q, opt, err := decodeQueryRequest(body, e.Stats().N, s.cfg.MaxBatch)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	ctx, cancel := requestContext(r, q.DeadlineMS)
	defer cancel()
	req := &request{kind: kindQuery, ctx: ctx, opts: opt, done: make(chan struct{})}
	if err := e.submit(req); err != nil {
		s.writeErr(w, err)
		return
	}
	res := req.res
	resp := queryResponse{
		Graph:     e.key,
		Version:   req.version,
		Cached:    req.cached,
		Algorithm: opt.Algorithm.String(),
		Rounds:    res.Stats.Rounds,
		HopParam:  res.Stats.H,
		Blocker:   res.Stats.BlockerSetSize,
	}
	switch {
	case len(q.Pairs) > 0:
		resp.Dist = make([]int64, len(q.Pairs))
		for i, p := range q.Pairs {
			resp.Dist[i] = wireDist(res.Dist[p[0]][p[1]])
		}
		if q.Paths {
			resp.Paths = make([][]int, len(q.Pairs))
			for i, p := range q.Pairs {
				resp.Paths[i] = res.Path(p[0], p[1])
			}
		}
	case q.Source != nil:
		row := res.Dist[*q.Source]
		resp.Row = make([]int64, len(row))
		for i, d := range row {
			resp.Row[i] = wireDist(d)
		}
	default:
		resp.Matrix = make([][]int64, len(res.Dist))
		for x, row := range res.Dist {
			resp.Matrix[x] = make([]int64, len(row))
			for i, d := range row {
				resp.Matrix[x][i] = wireDist(d)
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Get(r.PathValue("key"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	ups, deadlineMS, err := decodeUpdateRequest(body, e.Stats().N, s.cfg.MaxBatch)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	ctx, cancel := requestContext(r, deadlineMS)
	defer cancel()
	req := &request{kind: kindUpdate, ctx: ctx, ups: ups, done: make(chan struct{})}
	if err := e.submit(req); err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, updateResponse{
		Graph:      e.key,
		Version:    req.version,
		Applied:    len(ups),
		Reused:     req.ustats.Reused,
		Recomputed: req.ustats.Recomputed,
		FellBack:   req.ustats.FellBack,
	})
}

func (s *Service) handleBlocker(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Get(r.PathValue("key"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var b blockerRequestWire
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		s.badRequest(w, fmt.Errorf("bad blocker body: %w", err))
		return
	}
	n := e.Stats().N
	if b.HopParam < 0 || b.HopParam > n {
		s.badRequest(w, fmt.Errorf("hop_param %d out of range [0, %d]", b.HopParam, n))
		return
	}
	if b.DeadlineMS < 0 {
		s.badRequest(w, fmt.Errorf("deadline_ms %d is negative", b.DeadlineMS))
		return
	}
	var mode apsp.BlockerMode
	switch b.Mode {
	case "", "deterministic":
		mode = apsp.BlockerDeterministic
	case "random":
		mode = apsp.BlockerRandomized
	case "greedy":
		mode = apsp.BlockerGreedy
	default:
		s.badRequest(w, fmt.Errorf("unknown blocker mode %q", b.Mode))
		return
	}
	ctx, cancel := requestContext(r, b.DeadlineMS)
	defer cancel()
	req := &request{
		kind: kindBlocker,
		ctx:  ctx,
		bopt: apsp.BlockerOptions{HopParam: b.HopParam, Mode: mode, Seed: b.Seed},
		done: make(chan struct{}),
	}
	if err := e.submit(req); err != nil {
		s.writeErr(w, err)
		return
	}
	q := req.q
	if q == nil {
		q = []int{}
	}
	s.writeJSON(w, http.StatusOK, blockerResponse{
		Graph: e.key, Version: req.version, Q: q, Rounds: req.bstats.Rounds,
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Get(r.PathValue("key"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, e.Stats())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WriteText(w)
}
