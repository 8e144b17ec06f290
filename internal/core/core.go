// Package core implements the paper's overall APSP algorithm (Algorithm 1)
// on the CONGEST simulator, together with the baseline variants that the
// benchmark harness compares against (Table 1 of the paper):
//
//   - Det43: this paper — h = n^(1/3), deterministic blocker set
//     (Algorithm 2'), pipelined reversed q-sink delivery (Algorithms 8/9).
//     O~(n^(4/3)) rounds (Theorem 1.1).
//   - Det32: the Agarwal-Ramachandran-King-Pontecorvi PODC'18 baseline [2]
//     — h = n^(1/2), greedy blocker set, Step 6 by broadcast. O~(n^(3/2)).
//   - Rand43: the randomized-sampling profile in the style of Huang et
//     al. [13] / Agarwal-Ramachandran [1] — random blocker set, pipelined
//     Step 6. O~(n^(4/3)) w.h.p.
//   - BroadcastStep6: ablation — this paper's pipeline with Step 6 replaced
//     by the trivial broadcast, isolating the contribution of Section 4.
//     O~(n^(5/3)).
//
// The steps of Algorithm 1 map to:
//
//	Step 1  csssp.Build (out-trees for V)          O(n*h)
//	Step 2  blocker.Compute                        O~(n*h) det / O(nh+n|Q|) greedy
//	Step 3  bford.RunLabels in-SSSP per c in Q     O(|Q|*h)
//	Step 4  broadcast.AllToAll of |Q|^2 values     O~(n^(4/3))
//	Step 5  local min-plus closure over Q
//	Step 6  qsink.Run                              O~(n^(4/3)) / O~(n^(5/3))
//	Step 7  bford.RunLabelsWithInit per source     O(n*h)
//	(+)     ResolveLastEdges (last hops)           O(n)
//
// The last-edge exchange is an implementation addition: Algorithm 1 ends
// with the distances known at the targets, and the exchange finds each
// target's last hop. Like Bellman-Ford it runs on the host, charged round
// by round (lastedge.go), with its engine protocol kept as the matcheck
// reference (reference.go).
package core

import (
	"congestapsp/internal/blocker"
	"congestapsp/internal/qsink"
)

// Variant selects the algorithm profile.
type Variant int

const (
	// Det43 is the paper's deterministic O~(n^(4/3)) algorithm.
	Det43 Variant = iota
	// Det32 is the deterministic O~(n^(3/2)) baseline of [2].
	Det32
	// Rand43 is the randomized-sampling O~(n^(4/3)) profile ([13, 1]).
	Rand43
	// BroadcastStep6 is Det43 with the trivial O~(n^(5/3)) Step 6.
	BroadcastStep6
)

// String names the variant as it appears in experiment tables.
func (v Variant) String() string {
	switch v {
	case Det43:
		return "det43"
	case Det32:
		return "det32"
	case Rand43:
		return "rand43"
	default:
		return "broadcast-step6"
	}
}

// Options configures a run.
type Options struct {
	Variant Variant
	// H overrides the hop parameter (0 or negative = the variant's
	// default: ceil of n^(1/3) for the n^(4/3) profiles, ceil of sqrt(n)
	// for Det32).
	H int
	// Bandwidth is the CONGEST per-link words-per-round budget (default 1).
	Bandwidth int
	// Parallel enables source sharding: independent per-source sub-runs
	// dispatch across cloned networks via the work-stealing scheduler
	// (congest.Network.ShardRuns). Each simulated round still runs on one
	// goroutine.
	Parallel bool
	// RetrySequential opts into graceful degradation on worker panics: a
	// ShardRuns sub-run that panics is rewound and re-executed sequentially
	// on a fresh clone after the fleet drains, and a fully-recovered run's
	// results and stats are bit-identical to an undisturbed one.
	// Cancellation and ordinary errors are never retried.
	RetrySequential bool
	// Seed drives the randomized variants.
	Seed int64
	// SkipLastEdges disables the final last-edge resolution pass.
	SkipLastEdges bool
	// OnRound is forwarded to the simulator's per-round trace hook.
	OnRound func(round, delivered int)
}

// Stats aggregates everything the benchmark harness reports.
type Stats struct {
	N, M, H           int
	QSize             int
	Rounds            int
	Messages          int64
	Words             int64
	MaxNodeCongestion int64
	Blocker           blocker.Stats
	QSink             qsink.Stats
}

// Result is the APSP output: exact distances (and last edges) for every
// ordered pair, as known distributedly at the target nodes. The row slices
// are zero-copy views of flat row-major matrices (internal/mat). A Result
// is caller-owned — it stays valid after later runs on the same Session.
type Result struct {
	// Dist[x][t] = delta(x, t); graph.Inf when t is unreachable from x.
	Dist [][]int64
	// LastHop[x][t] is the predecessor of t on a shortest x->t path (-1
	// for t == x, unreachable pairs, or when SkipLastEdges was set).
	LastHop [][]int
	Stats   Stats
	// Stages is the per-stage cost breakdown recorded by the staged
	// pipeline executor, in execution order (skipped stages are absent).
	Stages []StageTiming
}

// BlockerOptions configures Session.BlockerOnlyContext. The zero value
// selects the paper's deterministic construction with the default hop
// parameter.
type BlockerOptions struct {
	// H is the hop parameter (0 or negative = ceil(n^(1/3))).
	H int
	// Mode selects the construction algorithm.
	Mode blocker.Mode
	// Seed drives the randomized modes.
	Seed int64
	// Parallel source-shards the collection's per-source SSSPs across a
	// worker pool (the blocker construction itself follows the sequential
	// schedule either way, and the result is bit-identical).
	Parallel bool
}
