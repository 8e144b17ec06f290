package congest

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the source-sharding substrate: cheap Network clones
// that share the immutable CSR topology, additive Stats merging, and the
// ShardRuns work-stealing scheduler that dispatches independent sub-runs
// (one CONGEST protocol execution per source) across a worker pool. See
// DESIGN.md §2.4.

// Clone returns a Network over the same communication topology with fresh,
// zeroed statistics and its own engine and scratch arenas. The input graph,
// underlying undirected graph, CSR adjacency arenas and reverse-link table
// are shared (they are immutable for the lifetime of a run), so a clone
// costs O(n) — the per-node stats vector — not O(n + m).
//
// The clone starts with Parallel unset (a worker clone runs its sub-runs
// itself; the parallelism lives one level up, across sources) and no
// OnRound hook. Bandwidth is inherited. The scratch arena is NOT shared:
// each clone owns a private one, which is what lets a worker fleet run
// allocation-free without locks.
func (nw *Network) Clone() *Network {
	c := &Network{
		G:         nw.G,
		UG:        nw.UG,
		Bandwidth: nw.Bandwidth,
		nbrOff:    nw.nbrOff,
		nbrs:      nw.nbrs,
		rev:       nw.rev,
		subrun:    -1,
	}
	c.Stats.WordsByNode = make([]int64, nw.G.N)
	return c
}

// PanicError is a panic recovered inside a ShardRuns sub-run (or a pipeline
// stage), converted to an error so one poisoned source vertex cannot take
// down the whole process. The dispatcher's deterministic lowest-failing-index
// rule applies to PanicErrors exactly as to ordinary errors.
type PanicError struct {
	// SubRun is the failing sub-run index within its ShardRuns call
	// (-1 when the panic escaped a stage outside any sharded dispatch).
	SubRun int
	// Source is the source vertex the sub-run was computing, when the
	// caller tagged it (-1 when unknown).
	Source int
	// Stage is the pipeline stage that was executing ("" when unknown).
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	tag := ""
	if e.Stage != "" {
		tag = " in " + e.Stage
	}
	if e.SubRun >= 0 {
		tag += fmt.Sprintf(" (sub-run %d", e.SubRun)
		if e.Source >= 0 {
			tag += fmt.Sprintf(", source %d", e.Source)
		}
		tag += ")"
	}
	return fmt.Sprintf("congest: recovered panic%s: %v", tag, e.Value)
}

// statsSnapshot is a rewind point for a Network's Stats, taken before a
// sub-run when RetrySequential is armed so a panicking sub-run's partial
// counters can be discarded exactly.
type statsSnapshot struct {
	rounds      int
	messages    int64
	words       int64
	wordsByNode []int64
}

func (snap *statsSnapshot) save(s *Stats) {
	snap.rounds, snap.messages, snap.words = s.Rounds, s.Messages, s.Words
	snap.wordsByNode = append(snap.wordsByNode[:0], s.WordsByNode...)
}

func (snap *statsSnapshot) restore(s *Stats) {
	s.Rounds, s.Messages, s.Words = snap.rounds, snap.messages, snap.words
	copy(s.WordsByNode, snap.wordsByNode)
}

// callSub runs one sub-run on w with panic recovery: it resets w's scratch
// arena, marks the executing sub-run index (so the fault injector and error
// tags can see it), fires any armed per-sub-run fault, and converts a panic
// escaping fn into a *PanicError. The defer is an open-coded recover over
// named returns, so the happy path allocates nothing.
func callSub(w *Network, i int, fn func(w *Network, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{SubRun: i, Source: -1, Value: v, Stack: debug.Stack()}
		}
	}()
	w.subrun = i
	w.Scratch().Reset()
	if w.fault != nil {
		if ferr := w.fault.FireSubRun(i); ferr != nil {
			return ferr
		}
	}
	return fn(w, i)
}

// Add accumulates o into s: every counter is additive, including the
// per-node word vector, so summing per-worker Stats in sub-run order
// reproduces the sequential totals bit for bit (integer addition is exact).
func (s *Stats) Add(o *Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.Words += o.Words
	if len(s.WordsByNode) < len(o.WordsByNode) {
		grown := make([]int64, len(o.WordsByNode))
		copy(grown, s.WordsByNode)
		s.WordsByNode = grown
	}
	for v, w := range o.WordsByNode {
		s.WordsByNode[v] += w
	}
}

// ShardRuns executes fn(w, i) for every i in [0, count), where each
// invocation is one complete, independent protocol execution (e.g. one
// per-source Bellman-Ford). Sequentially — when Parallel is unset, an
// OnRound hook is installed (traces must observe the serial schedule), or
// count < 2 — every call receives nw itself, exactly as if the caller had
// looped. Otherwise min(GOMAXPROCS, count) workers, each owning a Clone of
// nw, pull sub-run indices from a shared atomic counter (work stealing): a
// worker that drew a cheap sub-run immediately pulls the next index instead
// of idling at a chunk barrier, so skewed workloads — one expensive source
// on a power-law hub, the rest trivial — keep every worker busy until the
// queue drains. fn must write only state owned by index i (a matrix row, a
// slot in a per-source slice).
//
// After the workers join, per-clone Stats are added into nw.Stats. Which
// clone executed which sub-run depends on the interleaving, but every
// counter (rounds, messages, words, the per-node WordsByNode vector) is an
// exact integer sum over per-sub-run contributions, and integer addition is
// commutative and associative — so the merged totals are bit-identical to
// the sequential schedule regardless of how the indices were distributed.
// Each sub-run itself executes on exactly one clone, whose engine is
// deterministic, so per-index results never depend on the interleaving
// either.
//
// On error the scheduler stops handing out new indices (in-flight sub-runs
// finish) and the recorded error with the lowest sub-run index wins. For a
// deterministic fn that is the lowest failing index overall: indices are
// dispatched in increasing order, so the lowest failing index is always
// dispatched before any other failing one, and a dispatched sub-run
// completes and records its error before the scheduler returns. Which
// higher indices also ran is interleaving-dependent, but callers abort on
// error, so the partial stats are never observed as a result.
//
// Scratch discipline: the executing network's scratch arena is Reset before
// every fn invocation (sequentially that is nw's own arena; in parallel each
// worker resets its clone's). fn must therefore not retain arena-backed data
// from one invocation to the next — copy anything that outlives the sub-run
// into caller-owned storage, which every consumer in this repository already
// does (each sub-run writes one matrix row or per-index slot).
//
// A panic escaping fn does not kill the process or deadlock the dispatcher:
// every sub-run executes under a recover that converts the panic into a
// *PanicError tagged with the sub-run index (and, once the caller annotates
// it, the source vertex and stage), and that error then competes under the
// same lowest-index rule as ordinary errors. When nw.RetrySequential is set,
// sub-runs that failed ONLY by panic are rewound (their partial stats
// discarded against a pre-sub-run snapshot) and re-executed sequentially, in
// increasing index order, on one fresh clone after the fleet drains; the
// merged stats of a fully-recovered run are bit-identical to an undisturbed
// one. Cancellation and ordinary errors are never retried.
//
// The worker clones themselves are cached on nw and reused by every later
// ShardRuns call (Steps 3 and 7 of the pipeline, the q-sink SSSP pairs, the
// per-commit blocker upcasts all share one fleet), so their engines and
// scratch arenas stay warm: a steady-state sharded stage allocates nothing.
func (nw *Network) ShardRuns(count int, fn func(w *Network, i int) error) error {
	workers := 1
	if nw.Parallel && nw.OnRound == nil {
		workers = runtime.GOMAXPROCS(0)
		if workers > count {
			workers = count
		}
	}
	if workers <= 1 {
		return nw.shardRunsSeq(count, fn)
	}

	for len(nw.fleet) < workers {
		nw.fleet = append(nw.fleet, nw.Clone())
	}
	var (
		next   atomic.Int64 // next undispatched sub-run index
		failed atomic.Bool  // stops dispatch once any sub-run errs
		wg     sync.WaitGroup
	)
	errs := make([]error, workers)
	errIdx := make([]int, workers)
	panicked := make([][]subFailure, workers)
	for w := 0; w < workers; w++ {
		cl := nw.fleet[w]
		cl.ResetStats()
		cl.ctx, cl.done, cl.fault = nw.ctx, nw.done, nw.fault
		wg.Add(1)
		go func(w int, cl *Network) {
			defer wg.Done()
			var snap statsSnapshot
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				if nw.RetrySequential {
					snap.save(&cl.Stats)
				}
				err := callSub(cl, i, fn)
				if err == nil {
					continue
				}
				var pe *PanicError
				if nw.RetrySequential && errors.As(err, &pe) {
					// Discard the poisoned sub-run's partial counters and
					// keep this worker pulling; the index is re-run
					// sequentially after the fleet drains.
					snap.restore(&cl.Stats)
					panicked[w] = append(panicked[w], subFailure{i, err})
					continue
				}
				errs[w], errIdx[w] = err, i
				failed.Store(true)
				return
			}
		}(w, cl)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		nw.fleet[w].ctx, nw.fleet[w].done, nw.fleet[w].fault = nil, nil, nil
		nw.fleet[w].subrun = -1
		nw.Stats.Add(&nw.fleet[w].Stats)
	}
	best := -1
	for w := range errs {
		if errs[w] != nil && (best == -1 || errIdx[w] < errIdx[best]) {
			best = w
		}
	}
	var retry []subFailure
	for _, fs := range panicked {
		retry = append(retry, fs...)
	}
	if best >= 0 {
		// A non-retryable error aborts the run. The deterministic
		// lowest-failing-index rule still applies across BOTH failure
		// populations: a recovered panic at a lower index outranks it.
		err, idx := errs[best], errIdx[best]
		for _, f := range retry {
			if f.index < idx {
				err, idx = f.err, f.index
			}
		}
		return err
	}
	if len(retry) == 0 {
		return nil
	}
	return nw.retrySequential(retry, fn)
}

// ArenaFootprint returns the high-water byte footprint of this network's
// scratch arena plus those of its cached worker-clone fleet. Arenas are
// grow-only, so the value is monotone; the serving layer folds it into the
// approximate per-entry byte accounting of the warm-Runner pool.
func (nw *Network) ArenaFootprint() int64 {
	total := nw.scratch.Footprint()
	for _, cl := range nw.fleet {
		total += cl.scratch.Footprint()
	}
	return total
}

// subFailure records one panicked sub-run awaiting sequential retry.
type subFailure struct {
	index int
	err   error
}

// shardRunsSeq is the sequential dispatch path: every sub-run executes on nw
// itself, in index order, still under per-sub-run panic recovery (and, when
// RetrySequential is armed, the same rewind-and-retry policy as the parallel
// path, so the two exec modes expose one failure model).
func (nw *Network) shardRunsSeq(count int, fn func(w *Network, i int) error) error {
	var (
		snap  statsSnapshot
		retry []subFailure
	)
	defer func() { nw.subrun = -1 }()
	for i := 0; i < count; i++ {
		if nw.RetrySequential {
			snap.save(&nw.Stats)
		}
		err := callSub(nw, i, fn)
		if err == nil {
			continue
		}
		var pe *PanicError
		if nw.RetrySequential && errors.As(err, &pe) {
			snap.restore(&nw.Stats)
			retry = append(retry, subFailure{i, err})
			continue
		}
		// Sub-runs execute in index order here, so any previously collected
		// panic has a lower index and wins under the deterministic rule.
		if len(retry) > 0 {
			return retry[0].err
		}
		return err
	}
	if len(retry) == 0 {
		return nil
	}
	return nw.retrySequential(retry, fn)
}

// retrySequential re-executes panicked sub-runs in increasing index order on
// one fresh clone (fresh engine, fresh scratch arena — none of the state the
// panic may have poisoned). A sub-run that fails again, by panic or
// otherwise, aborts with the lowest failing index; on success the clone's
// stats merge into nw's, and because every counter is an exact integer sum
// over per-sub-run contributions the recovered totals are bit-identical to
// an undisturbed run.
func (nw *Network) retrySequential(retry []subFailure, fn func(w *Network, i int) error) error {
	sort.Slice(retry, func(a, b int) bool { return retry[a].index < retry[b].index })
	cl := nw.Clone()
	cl.ctx, cl.done, cl.fault = nw.ctx, nw.done, nw.fault
	for _, f := range retry {
		if err := callSub(cl, f.index, fn); err != nil {
			return err
		}
	}
	nw.Stats.Add(&cl.Stats)
	return nil
}
