package core

import (
	"context"
	"fmt"
	"math"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
)

// Session is a warm execution context pinned to one graph: the CONGEST
// network (CSR adjacency, engine arenas, scratch slabs) is built once, and
// every Run or BlockerOnly call on the session reuses it — including the
// cached worker-clone fleet and its private arenas, which ShardRuns grows
// on the first parallel stage and then keeps warm forever. Repeated runs
// therefore skip the network build and the arena cold start entirely; the
// public surface is apsp.Runner.
//
// A Session supports one call at a time (the Network's single-execution
// discipline). The graph may be mutated ONLY through ApplyUpdates, the
// session's first-class update path: it patches the warm network in place
// (rebuilding the CSR topology when edges appear or vanish) and arms the
// next Run to re-compute incrementally. Mutating the graph any other way
// between runs makes the next Run fail loudly: API-level mutations
// (AddEdge and friends on the graph directly) are caught by an O(1)
// version compare, and raw writes through the Edges() slice by the
// paranoid O(m) digest re-verify of `-tags matcheck` builds.
//
// Results are caller-owned: every matrix a Run returns is freshly
// allocated (or freshly copied, on the incremental path), so a Result
// remains valid after later runs on the same session.
type Session struct {
	g  *graph.Graph
	nw *congest.Network
	// knownVersion is the graph's mutation counter as of the last
	// NewSession/ApplyUpdates; begin() compares it in O(1) instead of
	// re-hashing the edge list on every warm run.
	knownVersion uint64
	// digest is the commutative content digest (update.go), maintained
	// incrementally by ApplyUpdates and re-verified wholesale only under
	// -tags matcheck.
	digest uint64
	// pendingUpdates gates the incremental path: set by ApplyUpdates,
	// consumed by the next Run. Plain warm re-runs stay fully cold, so
	// their simulation (messages, words, congestion) is untouched.
	pendingUpdates bool
	snap           snapshot
	qsnap          qsink.Snapshot
	// hops caches the unweighted BFS depth tables the hop-bound damage
	// test needs (hops.go); weight-free, so weight-only batches reuse it
	// and topology changes drop it. wave is the replay scratch.
	hops *hopTables
	wave waveScratch
}

// NewSession builds the warm network for g. The graph may be empty.
func NewSession(g *graph.Graph) (*Session, error) {
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		return nil, err
	}
	s := &Session{g: g, nw: nw, knownVersion: g.Version(), digest: graphDigest(g)}
	s.snap.qsnap = &s.qsnap
	return s, nil
}

// ArenaFootprint returns the high-water byte footprint of the session's
// warm network arenas (engine scratch plus the worker-clone fleet's). The
// serving pool adds it to the n²-proportional result-matrix bytes for
// approximate per-entry memory accounting.
func (s *Session) ArenaFootprint() int64 { return s.nw.ArenaFootprint() }

// SetFaultInjector arms (or, with nil, disarms) a deterministic fault
// injector on the session's network and worker-clone fleet — a test
// instrument; see internal/faultinject. The hook persists across runs until
// replaced, so one armed session can serve a whole fault matrix.
func (s *Session) SetFaultInjector(fi congest.FaultInjector) { s.nw.SetFaultInjector(fi) }

// begin re-arms the warm network for a fresh logical run: per-run options
// are (re)applied, statistics are zeroed, and the topology guard checks
// that the graph was not mutated since NewSession.
func (s *Session) begin(bandwidth int, parallel bool, onRound func(int, int)) error {
	if s.g.Version() != s.knownVersion {
		return fmt.Errorf("core: graph modified outside ApplyUpdates since the session was created (version mismatch; route mutations through Session.ApplyUpdates)")
	}
	if paranoidGraphCheck && graphDigest(s.g) != s.digest {
		return fmt.Errorf("core: graph content diverged from the session digest (matcheck: a mutation bypassed both ApplyUpdates and the graph API)")
	}
	if bandwidth == 0 {
		bandwidth = 1
	}
	if err := s.nw.SetBandwidth(bandwidth); err != nil {
		return err
	}
	s.nw.Parallel = parallel
	s.nw.OnRound = onRound
	s.nw.ResetStats()
	return nil
}

// Run executes the selected APSP variant on the session's graph, reusing
// the warm network. It is the session form of the package-level Run and
// produces bit-identical results (the engine and every protocol draw from
// grow-only pooled state whose content is fully re-initialized per run).
func (s *Session) Run(opt Options) (*Result, error) {
	return s.RunContext(context.Background(), opt)
}

// RunContext is Run under a context: the run observes ctx.Done() at round
// granularity inside the engine and at every pipeline stage boundary, and
// an interrupted run returns an *InterruptError (unwrapping to the context
// sentinel) that reports the stage, completed rounds, and per-stage cost of
// the work finished. The session remains reusable after an interrupted run
// — the next call starts clean and produces bit-identical results, exactly
// as after a successful one. A context that can never be canceled
// (context.Background, context.TODO) arms nothing and costs nothing.
func (s *Session) RunContext(ctx context.Context, opt Options) (*Result, error) {
	n := s.g.N
	if n == 0 {
		return &Result{}, nil
	}
	if err := s.begin(opt.Bandwidth, opt.Parallel, opt.OnRound); err != nil {
		return nil, err
	}
	s.nw.RetrySequential = opt.RetrySequential
	s.nw.SetContext(ctx)
	defer s.nw.SetContext(nil)
	h := opt.H
	if h == 0 {
		switch opt.Variant {
		case Det32:
			h = int(math.Ceil(math.Sqrt(float64(n))))
		default:
			h = int(math.Ceil(math.Pow(float64(n), 1.0/3)))
		}
	}
	if h < 1 {
		h = 1
	}
	p := &pipeline{
		g:   s.g,
		nw:  s.nw,
		opt: opt,
		n:   n,
		h:   h,
		st:  Stats{N: n, M: s.g.M(), H: h},
	}
	key := snapKeyOf(opt, h)
	// Snapshot eligibility: full-APSP runs only. Partial runs neither arm
	// nor consume snapshots (and leave an armed one untouched and valid).
	eligible := opt.Sources == nil
	if s.pendingUpdates {
		// One-shot gate: this run reflects the updates whether it reuses
		// snapshot state or recomputes; either way the next plain re-run
		// is an ordinary cold run on the now-current graph.
		s.pendingUpdates = false
		if eligible && s.snap.valid && !s.snap.fellBack && key == s.snap.key {
			p.inc = s.snap.buildPlan()
		}
	}
	if eligible {
		// The run below overwrites snapshot-owned state (the q-sink
		// capture arena; refreshed collection rows on the incremental
		// path). Invalidate until it completes, so a canceled or panicked
		// run leaves the next Run cold instead of reusing torn state —
		// exactly the session's reuse-after-error contract.
		s.snap.valid = false
		p.qcap = &s.qsnap
	}
	res, err := p.run()
	if err != nil {
		return nil, err
	}
	if eligible {
		s.capture(p, key)
	}
	return res, nil
}

// BlockerOnly builds just the h-hop CSSSP collection for all sources and a
// blocker set over it on the warm network; it is the session form of the
// package-level BlockerOnly (and backs apsp.Runner.BlockerSet).
func (s *Session) BlockerOnly(opt BlockerOptions) ([]int, blocker.Stats, error) {
	return s.BlockerOnlyContext(context.Background(), opt)
}

// BlockerOnlyContext is BlockerOnly under a context, observed at round
// granularity; an interrupted construction returns the context's error (the
// blocker path has no staged executor, so there is no InterruptError
// envelope — match with errors.Is against the context sentinels). The
// session remains reusable afterwards.
func (s *Session) BlockerOnlyContext(ctx context.Context, opt BlockerOptions) ([]int, blocker.Stats, error) {
	h := opt.H
	if h < 1 {
		h = int(math.Ceil(math.Pow(float64(s.g.N), 1.0/3)))
	}
	if err := s.begin(1, opt.Parallel, nil); err != nil {
		return nil, blocker.Stats{}, err
	}
	s.nw.RetrySequential = false
	s.nw.SetContext(ctx)
	defer s.nw.SetContext(nil)
	sources := make([]int, s.g.N)
	for i := range sources {
		sources[i] = i
	}
	coll, err := csssp.Build(s.nw, s.g, sources, h, bford.Out)
	if err != nil {
		return nil, blocker.Stats{}, err
	}
	res, err := blocker.Compute(s.nw, coll, blocker.Params{Mode: opt.Mode, Seed: opt.Seed})
	if err != nil {
		return nil, blocker.Stats{}, err
	}
	return res.Q, res.Stats, nil
}
