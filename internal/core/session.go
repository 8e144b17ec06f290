package core

import (
	"context"
	"fmt"
	"math"

	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
)

// Session is a warm execution context pinned to one graph: the CONGEST
// network (CSR adjacency, engine arenas, scratch slabs) is built once, and
// every Run or BlockerOnlyContext call on the session reuses it — including the
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
	// hops caches what the hop-bound damage test needs (hops.go): the
	// unweighted BFS depth tables and the network clone its replays run
	// on. Both are weight-free, so weight-only batches reuse them, and
	// topology changes drop them.
	hops *hopTables
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

// begin is the prologue every session call shares. It checks that the
// graph was not mutated since NewSession or the last ApplyUpdates, re-arms
// the warm network with the call's options (bandwidth, exec mode, retry
// policy, round hook, zeroed statistics), resolves the hop parameter, and
// arms ctx on the network; the caller disarms it when the call returns.
func (s *Session) begin(ctx context.Context, opt Options) (*pipeline, error) {
	if s.g.Version() != s.knownVersion {
		return nil, fmt.Errorf("core: graph modified outside ApplyUpdates since the session was created (version mismatch; route mutations through Session.ApplyUpdates)")
	}
	if paranoidGraphCheck && graphDigest(s.g) != s.digest {
		return nil, fmt.Errorf("core: graph content diverged from the session digest (matcheck: a mutation bypassed both ApplyUpdates and the graph API)")
	}
	bandwidth := opt.Bandwidth
	if bandwidth == 0 {
		bandwidth = 1
	}
	if err := s.nw.SetBandwidth(bandwidth); err != nil {
		return nil, err
	}
	s.nw.Parallel = opt.Parallel
	s.nw.RetrySequential = opt.RetrySequential
	s.nw.OnRound = opt.OnRound
	s.nw.ResetStats()
	n := s.g.N
	h := opt.H
	if h <= 0 {
		switch opt.Variant {
		case Det32:
			h = int(math.Ceil(math.Sqrt(float64(n))))
		default:
			h = int(math.Ceil(math.Pow(float64(n), 1.0/3)))
		}
	}
	s.nw.SetContext(ctx)
	return &pipeline{
		g:   s.g,
		nw:  s.nw,
		opt: opt,
		n:   n,
		h:   h,
		st:  Stats{N: n, M: s.g.M(), H: h},
	}, nil
}

// Run executes the selected APSP variant on the session's graph, reusing
// the warm network. A warm run is bit-identical to a run on a fresh
// session (the engine and every protocol draw from grow-only pooled state
// whose content is fully re-initialized per run).
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
	if s.g.N == 0 {
		return &Result{}, nil
	}
	p, err := s.begin(ctx, opt)
	if err != nil {
		return nil, err
	}
	defer s.nw.SetContext(nil)
	// The variant picks step 2's construction; Det43 and BroadcastStep6
	// use Algorithm 2' (the zero Params).
	switch opt.Variant {
	case Det32:
		p.bp.Mode = blocker.Greedy
	case Rand43:
		p.bp = blocker.Params{Mode: blocker.RandomSample, Seed: opt.Seed}
	}
	key := snapKeyOf(opt, p.h)
	if s.pendingUpdates {
		// One-shot gate: this run reflects the updates whether it reuses
		// snapshot state or recomputes; either way the next plain re-run
		// is an ordinary cold run on the now-current graph.
		s.pendingUpdates = false
		if s.snap.valid && !s.snap.fellBack && key == s.snap.key {
			p.inc = s.snap.buildPlan()
		}
	}
	// The run below overwrites snapshot-owned state (the q-sink capture
	// arena; refreshed collection rows on the incremental path). Invalidate
	// until it completes, so a canceled or panicked run leaves the next Run
	// cold instead of reusing torn state — exactly the session's
	// reuse-after-error contract.
	s.snap.valid = false
	p.qcap = &s.qsnap
	if p.inc == nil {
		// A cold Step 1 rebuilds the invalidated snapshot's collection in
		// place, so a warm run does not allocate n trees' worth of rows.
		p.recycle = s.snap.coll
	}
	res, err := p.run()
	if err != nil {
		return nil, err
	}
	s.capture(p, key)
	return res, nil
}

// BlockerOnlyContext builds just the h-hop CSSSP collection for all
// sources and a blocker set over it: the staged executor run over its
// first two stages (step1-csssp, step2-blocker) after RunContext's
// prologue. It fails the way RunContext does — an *InterruptError naming
// the stage, a *congest.PanicError for a recovered panic, stage-wrapped
// ordinary errors — and leaves the session reusable. It neither consumes
// the updates pending since ApplyUpdates nor touches the result snapshot,
// so the next Run stays incremental.
func (s *Session) BlockerOnlyContext(ctx context.Context, opt BlockerOptions) ([]int, blocker.Stats, error) {
	if s.g.N == 0 {
		return nil, blocker.Stats{}, nil
	}
	p, err := s.begin(ctx, Options{H: opt.H, Parallel: opt.Parallel})
	if err != nil {
		return nil, blocker.Stats{}, err
	}
	defer s.nw.SetContext(nil)
	p.bp = blocker.Params{Mode: opt.Mode, Seed: opt.Seed}
	if err := p.execute(pipelineStages[:2]); err != nil {
		return nil, blocker.Stats{}, err
	}
	return p.Q, p.st.Blocker, nil
}
