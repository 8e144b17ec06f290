// Package apsp is the public interface of the CONGEST APSP library: a
// faithful implementation of "Faster Deterministic All Pairs Shortest Paths
// in Congest Model" (Agarwal & Ramachandran, SPAA 2020) on a
// round-synchronous CONGEST simulator, together with the baselines the
// paper compares against.
//
// Quick start:
//
//	g := apsp.NewGraph(4, false)
//	g.AddEdge(0, 1, 3)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 2)
//	res, err := apsp.Run(g, apsp.Options{})
//	// res.Dist[0][3] == 6, res.Stats.Rounds == CONGEST round count
//
// The default algorithm is the paper's deterministic O~(n^(4/3))-round
// pipeline (Theorem 1.1). Alternative profiles reproduce Table 1 of the
// paper: the deterministic O~(n^(3/2)) baseline of Agarwal et al. PODC'18,
// a randomized-sampling O~(n^(4/3)) profile, and an ablation that replaces
// the pipelined Step 6 with the trivial O~(n^(5/3)) broadcast.
package apsp

import (
	"fmt"

	"congestapsp/internal/core"
	"congestapsp/internal/graph"
)

// Inf is the distance reported for unreachable pairs.
const Inf = graph.Inf

// Graph is a weighted graph with vertices 0..N-1. Edge weights are
// non-negative integers; zero weights are fully supported. For directed
// graphs the CONGEST communication network is the underlying undirected
// graph, exactly as in the paper.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int, directed bool) *Graph {
	return &Graph{g: graph.New(n, directed)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.g.N }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.g.Directed }

// AddEdge adds an edge u->v (or {u,v} if undirected) with weight w >= 0.
func (g *Graph) AddEdge(u, v int, w int64) error { return g.g.AddEdge(u, v, w) }

// Edges calls f(u, v, w) for every edge.
func (g *Graph) Edges(f func(u, v int, w int64)) {
	for _, e := range g.g.Edges() {
		f(e.U, e.V, e.W)
	}
}

// Digest returns the graph's content digest: a 64-bit SplitMix64 sum over
// the node count, directedness, and positioned edge list. Two graphs share
// a digest exactly when they are content-identical, and a Runner's
// ApplyUpdates maintains the same digest incrementally — this is the
// identity warm-Runner caches (the serving pool) key by.
func (g *Graph) Digest() uint64 { return core.GraphDigest(g.g) }

// Algorithm selects the APSP profile.
type Algorithm int

const (
	// Deterministic43 is the paper's O~(n^(4/3))-round deterministic
	// algorithm (default).
	Deterministic43 Algorithm = iota
	// Deterministic32 is the O~(n^(3/2)) deterministic baseline [2].
	Deterministic32
	// Randomized43 is the randomized-sampling O~(n^(4/3)) profile [13, 1].
	Randomized43
	// BroadcastStep6 is Deterministic43 with Step 6 replaced by the
	// trivial O~(n^(5/3)) broadcast (ablation of Section 4).
	BroadcastStep6
)

func (a Algorithm) String() string {
	switch a {
	case Deterministic43:
		return "deterministic-n43"
	case Deterministic32:
		return "deterministic-n32"
	case Randomized43:
		return "randomized-n43"
	case BroadcastStep6:
		return "broadcast-step6"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm maps a profile name to its Algorithm. It accepts both
// the short CLI spellings (det43, det32, rand43, bcast6) and the long
// String() forms, so flags and recorded artifacts round-trip.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "det43", "deterministic-n43":
		return Deterministic43, nil
	case "det32", "deterministic-n32":
		return Deterministic32, nil
	case "rand43", "randomized-n43":
		return Randomized43, nil
	case "bcast6", "broadcast-step6":
		return BroadcastStep6, nil
	}
	return 0, fmt.Errorf("apsp: unknown algorithm %q (want det43|det32|rand43|bcast6)", name)
}

// Options configures a run. The zero value selects the paper's algorithm
// with its default parameters.
type Options struct {
	Algorithm Algorithm
	// HopParam overrides the hop parameter h (0 or negative = the profile
	// default: ceil(n^(1/3)), or ceil(sqrt(n)) for Deterministic32).
	HopParam int
	// Bandwidth is the number of words per link per direction per round
	// (default 1, the classic CONGEST budget).
	Bandwidth int
	// Parallel runs the independent per-source sub-runs (the CSSSP and
	// extension SSSPs, the q-sink SSSP pairs, the per-tree blocker runs)
	// source-sharded across a worker pool; each simulated round still runs
	// on one goroutine, and results are bit-identical to sequential
	// execution.
	Parallel bool
	// RetrySequential opts into graceful degradation under Parallel: a
	// worker sub-run that panics is re-executed sequentially on a fresh
	// clone after the fleet drains, and a fully-recovered run's results and
	// stats are bit-identical to an undisturbed one. Cancellation and
	// ordinary errors are never retried; a panic that recurs on retry
	// surfaces as *PanicError.
	RetrySequential bool
	// Seed drives the randomized profiles.
	Seed int64
	// SkipLastHops disables the final last-edge resolution pass.
	SkipLastHops bool
	// OnRound, when set, is invoked after every simulated CONGEST round
	// with the run's simulated-round sequence number (0, 1, 2, ...) and the
	// number of messages delivered that round (tracing/profiling hook).
	// Simulated rounds can fall far below Stats.Rounds: fixed schedules are
	// charged in full even when every node has terminated early.
	OnRound func(round, delivered int)
}

// StageTiming is the per-stage cost record of the staged pipeline
// executor: the stage name, the CONGEST rounds it charged
// (deterministic), and the host wall-clock and heap allocations it
// consumed. Allocs is approximate: it is the runtime/metrics
// /gc/heap/allocs:objects delta, which leaves out tiny objects and counts
// small objects per span refill, so a stage can be charged for another's
// allocations; use testing.AllocsPerRun for exact counts.
type StageTiming = core.StageTiming

// Stats reports the distributed cost of a run.
type Stats struct {
	N, M, H           int
	BlockerSetSize    int
	Rounds            int
	Messages          int64
	Words             int64
	MaxNodeCongestion int64
	// Stages is the executed pipeline stages in order, each with its
	// charged rounds, wall-clock and allocations (skipped stages absent).
	Stages []StageTiming
	// BottleneckCount and QPrimeSize expose the Section-4 machinery
	// (0 for the broadcast profiles).
	BottleneckCount int
	QPrimeSize      int
	PipelineRounds  int
}

// Result holds the APSP output.
type Result struct {
	// Dist[x][t] is the exact shortest-path distance from x to t (Inf if
	// unreachable).
	Dist [][]int64
	// LastHop[x][t] is the predecessor of t on a shortest x->t path (-1
	// on the diagonal, for unreachable pairs, or with SkipLastHops).
	LastHop [][]int
	Stats   Stats
}

// Run computes exact all-pairs shortest paths on g with the selected
// profile, returning the distances and the CONGEST cost accounting. It is
// Runner.Run on a one-shot Runner: each call builds (and discards) a fresh
// simulation network, so callers that run the same graph repeatedly should
// hold a Runner instead.
func Run(g *Graph, opt Options) (*Result, error) {
	r, err := NewRunner(g)
	if err != nil {
		return nil, err
	}
	return r.Run(opt)
}

// coreOptions maps the public options onto the core pipeline's.
func coreOptions(opt Options) core.Options {
	v := core.Det43
	switch opt.Algorithm {
	case Deterministic32:
		v = core.Det32
	case Randomized43:
		v = core.Rand43
	case BroadcastStep6:
		v = core.BroadcastStep6
	}
	return core.Options{
		Variant:         v,
		H:               opt.HopParam,
		Bandwidth:       opt.Bandwidth,
		Parallel:        opt.Parallel,
		RetrySequential: opt.RetrySequential,
		Seed:            opt.Seed,
		SkipLastEdges:   opt.SkipLastHops,
		OnRound:         opt.OnRound,
	}
}

// fromCore maps a core result onto the public shape.
func fromCore(res *core.Result) *Result {
	return &Result{
		Dist:    res.Dist,
		LastHop: res.LastHop,
		Stats: Stats{
			N: res.Stats.N, M: res.Stats.M, H: res.Stats.H,
			BlockerSetSize:    res.Stats.QSize,
			Rounds:            res.Stats.Rounds,
			Messages:          res.Stats.Messages,
			Words:             res.Stats.Words,
			MaxNodeCongestion: res.Stats.MaxNodeCongestion,
			Stages:            res.Stages,
			BottleneckCount:   res.Stats.QSink.BottleneckCount,
			QPrimeSize:        res.Stats.QSink.QPrimeSize,
			PipelineRounds:    res.Stats.QSink.PipelineRounds,
		},
	}
}

// Path reconstructs a shortest x->t path from a Result computed with last
// hops. It returns nil when t is unreachable from x, when x or t is out of
// range, or when the run skipped last hops (SkipLastHops).
func (r *Result) Path(x, t int) []int {
	if x < 0 || x >= len(r.Dist) || t < 0 || t >= len(r.Dist) {
		return nil
	}
	if r.LastHop == nil || r.Dist[x][t] >= Inf {
		return nil
	}
	var rev []int
	for cur := t; cur != x; {
		rev = append(rev, cur)
		cur = r.LastHop[x][cur]
		if cur < 0 || len(rev) > len(r.Dist) {
			return nil // defensive: broken predecessor chain
		}
	}
	rev = append(rev, x)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BlockerMode selects the blocker-set construction for BlockerSet.
type BlockerMode int

const (
	// BlockerDeterministic is the paper's Algorithm 2' (derandomized set
	// cover, O~(|S|h) rounds).
	BlockerDeterministic BlockerMode = iota
	// BlockerRandomized is Algorithm 2 with pairwise-independent sampling.
	BlockerRandomized
	// BlockerGreedy is the PODC'18 greedy baseline.
	BlockerGreedy
	// BlockerSampled is classic random sampling with patch-up.
	BlockerSampled
)

// BlockerStats summarizes a blocker-set construction.
type BlockerStats struct {
	Size           int
	Rounds         int
	SelectionSteps int
	GoodSets       int
	Fallbacks      int
}

// BlockerOptions configures BlockerSet. The zero value selects the paper's
// deterministic construction (Algorithm 2') with hop parameter
// ceil(n^(1/3)).
type BlockerOptions struct {
	// HopParam is the hop parameter h (0 or negative = ceil(n^(1/3))).
	HopParam int
	// Mode selects the construction algorithm.
	Mode BlockerMode
	// Seed drives the randomized modes.
	Seed int64
	// Parallel runs the underlying per-source SSSPs source-sharded across
	// a worker pool; the set, stats and charged rounds are bit-identical
	// to the sequential schedule.
	Parallel bool
}

// BlockerSet computes an h-hop blocker set of g directly (a building block
// exposed for experimentation): a vertex set hitting every h-hop shortest
// path of the h-hop consistent SSSP collection of all sources. It is
// Runner.BlockerSet on a one-shot Runner.
func BlockerSet(g *Graph, opt BlockerOptions) ([]int, BlockerStats, error) {
	r, err := NewRunner(g)
	if err != nil {
		return nil, BlockerStats{}, err
	}
	return r.BlockerSet(opt)
}
