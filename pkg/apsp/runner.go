package apsp

import (
	"context"

	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/core"
)

// Runner is a warm APSP session pinned to one graph. The CONGEST network
// (CSR adjacency) is built once by NewRunner, and everything that grows
// while running — engine arenas, pooled protocol scratch, the worker-clone
// fleet of the parallel execution layer — is kept warm across calls, so
// repeated runs with different algorithms, bandwidths or execution modes
// skip the per-call cold start that apsp.Run pays every time. This is the
// intended surface for serving repeated traffic against one graph: build a
// Runner per graph, then call Run and BlockerSet as often as needed. Each
// call runs the session's one staged executor — BlockerSet over its first
// two stages — so cancellation, typed errors and panic isolation are the
// same for both.
//
//	r, err := apsp.NewRunner(g)                                       // builds the network
//	det, err := r.Run(apsp.Options{})                                 // first run grows the arenas
//	base, err := r.Run(apsp.Options{Algorithm: apsp.Deterministic32}) // warm re-run
//
// Results are bit-identical to one-shot apsp.Run calls with the same
// options, and caller-owned: a Result stays valid after later runs on the
// same Runner.
//
// A Runner supports one call at a time (build one Runner per goroutine, or
// guard it with a mutex). The graph may be mutated ONLY through
// ApplyUpdates, the Runner's first-class update path: it patches the warm
// network in place and arms the next Run to re-compute incrementally,
// re-running only the per-source work a change can possibly have affected.
// Mutating the graph any other way makes the next call fail loudly (an
// O(1) version check; `-tags matcheck` builds additionally re-verify the
// graph content digest each run).
type Runner struct {
	g *Graph
	s *core.Session
}

// NewRunner builds a warm session for g. The graph may be used by many
// runners, but each Runner assumes all mutations route through its own
// ApplyUpdates (a graph updated through one Runner invalidates any other
// Runner pinned to it).
func NewRunner(g *Graph) (*Runner, error) {
	s, err := core.NewSession(g.g)
	if err != nil {
		return nil, err
	}
	return &Runner{g: g, s: s}, nil
}

// Graph returns the graph the Runner is pinned to.
func (r *Runner) Graph() *Graph { return r.g }

// ArenaFootprint returns the high-water byte footprint of the runner's warm
// simulation arenas (the session network's scratch slabs plus its worker
// fleet's). Grow-only, hence monotone; serving pools use it for
// approximate per-entry byte accounting.
func (r *Runner) ArenaFootprint() int64 { return r.s.ArenaFootprint() }

// SetFaultInjector arms (or, with nil, disarms) a deterministic fault
// injector on the Runner's warm session — a test instrument (see
// internal/faultinject) the serving layer threads through its pool so
// fault-matrix suites can exercise the daemon path. The hook persists
// across calls until replaced.
func (r *Runner) SetFaultInjector(fi congest.FaultInjector) { r.s.SetFaultInjector(fi) }

// Run computes APSP on the Runner's graph with the given options, reusing
// the warm network and worker fleet.
func (r *Runner) Run(opt Options) (*Result, error) {
	return r.RunContext(context.Background(), opt)
}

// RunContext is Run under a context: the run observes ctx.Done() at round
// granularity and at every pipeline stage boundary — within two simulated
// rounds or one stage boundary of the context firing, it stops and returns
// an *InterruptError matching ErrCanceled or ErrDeadlineExceeded (and the
// context's own sentinel) that carries the interrupted stage, the completed
// round count, and per-stage timings for the work finished. The Runner
// remains reusable after an interrupted run: the next call starts clean and
// is bit-identical to a cold run. A context that can never be canceled
// (context.Background, context.TODO) arms nothing and adds no per-round
// cost.
func (r *Runner) RunContext(ctx context.Context, opt Options) (*Result, error) {
	res, err := r.s.RunContext(ctx, coreOptions(opt))
	if err != nil {
		return nil, translateErr(err)
	}
	return fromCore(res), nil
}

// BlockerSet computes an h-hop blocker set of the Runner's graph on the
// warm session (the session form of apsp.BlockerSet). It does not consume
// the updates pending since ApplyUpdates: the next Run stays incremental.
func (r *Runner) BlockerSet(opt BlockerOptions) ([]int, BlockerStats, error) {
	return r.BlockerSetContext(context.Background(), opt)
}

// BlockerSetContext is BlockerSet under a context, observed as RunContext
// observes it: at round granularity and at the boundary of its two stages
// (step1-csssp, step2-blocker). It fails with RunContext's typed errors —
// an *InterruptError naming the stage, a *PanicError for a recovered
// panic — and the Runner remains reusable.
func (r *Runner) BlockerSetContext(ctx context.Context, opt BlockerOptions) ([]int, BlockerStats, error) {
	q, stats, err := r.s.BlockerOnlyContext(ctx, core.BlockerOptions{
		H:        opt.HopParam,
		Mode:     blocker.Mode(opt.Mode),
		Seed:     opt.Seed,
		Parallel: opt.Parallel,
	})
	if err != nil {
		return nil, BlockerStats{}, translateErr(err)
	}
	return q, BlockerStats{
		Size:           len(q),
		Rounds:         stats.Rounds,
		SelectionSteps: stats.SelectionSteps,
		GoodSets:       stats.GoodSetSelections,
		Fallbacks:      stats.FallbackSteps,
	}, nil
}
