package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"congestapsp/pkg/apsp"
)

// reqKind partitions the batch queue: consecutive requests of the same
// kind coalesce into one warm-session call.
type reqKind int

const (
	kindQuery reqKind = iota
	kindUpdate
	kindBlocker
)

func (k reqKind) String() string {
	switch k {
	case kindUpdate:
		return "update"
	case kindBlocker:
		return "blocker"
	}
	return "query"
}

// request is one queued unit of work against a pooled graph. The caller
// fills the input fields for its kind, enqueues, and blocks on done; the
// drain goroutine fills the output fields before closing done.
type request struct {
	kind reqKind
	ctx  context.Context

	opts apsp.Options        // kindQuery
	ups  []apsp.EdgeUpdate   // kindUpdate
	bopt apsp.BlockerOptions // kindBlocker

	res     *apsp.Result     // kindQuery output
	cached  bool             // query answered without running this batch
	ustats  apsp.UpdateStats // kindUpdate output
	q       []int            // kindBlocker output
	bstats  apsp.BlockerStats
	version uint64 // graph version the answer reflects
	err     error

	done chan struct{}
}

// entry is one pooled graph: its warm Runner, the FIFO batch queue, and
// the per-version result cache. A single drain goroutine (spawned on
// demand, exits when the queue empties) owns the Runner, which is what
// makes the daemon linearizable per graph: every answer reflects exactly
// the prefix of updates the FIFO order put before it, and the version
// counter names that prefix.
type entry struct {
	key    string
	pool   *Pool
	runner *apsp.Runner

	// journal is the entry's write-ahead log on a durable pool (nil
	// otherwise): applyCoalesced appends each accepted batch before any
	// waiter is released.
	journal *Journal

	lastUse uint64 // LRU slot, guarded by pool.mu

	mu       sync.Mutex // guards queue, draining, closed, cache
	queue    []*request
	draining bool
	// closed marks a durably-evicted entry: stale pointers must stop
	// enqueueing (ErrUnknownGraph) so the evicted twin cannot append to
	// the journal a recovered replacement now owns.
	closed bool

	version atomic.Uint64
	edges   atomic.Int64  // current edge count, maintained by the drain goroutine
	digest  atomic.Uint64 // current content digest, maintained by the drain goroutine
	// arenaBytes is the Runner's last observed warm-arena footprint,
	// published by the drain goroutine after each batch cycle (the Runner
	// may not be probed concurrently with a run, so the pool's byte
	// accounting reads this atomic instead of the live network).
	arenaBytes atomic.Int64

	// cache maps an options key to the Result computed for it at the
	// current version; cleared on every version bump. Queries run full
	// APSP, so one cached Result answers every pair/row/matrix question
	// asked under the same options. Touched only by the drain goroutine
	// and by Stats (under lock).
	cache map[string]*apsp.Result
}

func newEntry(key string, r *apsp.Runner, p *Pool) *entry {
	e := &entry{
		key:    key,
		pool:   p,
		runner: r,
		cache:  make(map[string]*apsp.Result),
	}
	e.edges.Store(int64(r.Graph().M()))
	e.digest.Store(r.Graph().Digest())
	return e
}

// approxBytes estimates the entry's resident footprint for the pool's byte
// budget: the n²-proportional result matrices a cached full-APSP answer
// pins (8 bytes of Dist plus 8 of LastHop per cell) plus the high-water
// arena footprint of the warm Runner's simulation network.
func (e *entry) approxBytes() int64 {
	n := int64(e.runner.Graph().N())
	return n*n*16 + e.arenaBytes.Load()
}

// idle reports whether the entry has no queued or in-flight work — the
// durable pool's eviction precondition.
func (e *entry) idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) == 0 && !e.draining
}

// markClosed retires a durably-evicted entry: subsequent enqueues fail
// with ErrUnknownGraph and callers re-resolve the key (which recovers the
// lineage from disk).
func (e *entry) markClosed() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// enqueue admits r to the batch queue (shedding at the depth cap) and
// ensures a drain goroutine is running. The caller then waits on r.done.
func (e *entry) enqueue(r *request) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrUnknownGraph
	}
	if len(e.queue) >= e.pool.maxQueue {
		e.mu.Unlock()
		e.pool.met.Add("apspd_shed_total", 1)
		return ErrOverloaded
	}
	e.queue = append(e.queue, r)
	depth := int64(len(e.queue))
	start := !e.draining
	if start {
		e.draining = true
	}
	e.mu.Unlock()
	e.pool.met.SetMax("apspd_queue_depth_max", depth)
	if start {
		go e.drain()
	}
	return nil
}

// submit is enqueue + wait: it blocks until the drain goroutine answered
// r. The wait is NOT cut short by r.ctx — the batcher owns cancellation
// (a merged context per coalesced run) and always answers, so a canceled
// caller still gets its typed interrupt error rather than an abandoned
// request mutating state behind its back.
func (e *entry) submit(r *request) error {
	if err := e.enqueue(r); err != nil {
		return err
	}
	<-r.done
	return r.err
}

// drain is the entry's single consumer: it repeatedly swaps out the whole
// queue, splits it into maximal same-kind runs (FIFO order preserved), and
// serves each run with one warm-session call.
func (e *entry) drain() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.draining = false
			e.mu.Unlock()
			return
		}
		batch := e.queue
		e.queue = nil
		e.mu.Unlock()
		for i := 0; i < len(batch); {
			j := i + 1
			for j < len(batch) && batch[j].kind == batch[i].kind {
				j++
			}
			run := batch[i:j]
			met := e.pool.met
			met.Add(fmt.Sprintf("apspd_batches_total{kind=%q}", run[0].kind), 1)
			met.Add(fmt.Sprintf("apspd_batched_requests_total{kind=%q}", run[0].kind), int64(len(run)))
			met.SetMax("apspd_batch_size_max", int64(len(run)))
			switch run[0].kind {
			case kindQuery:
				e.serveQueries(run)
			case kindUpdate:
				e.applyCoalesced(run)
			case kindBlocker:
				e.serveBlockers(run)
			}
			i = j
		}
		// Publish the arenas' (grow-only) footprint and let the pool
		// re-check its byte budget: warm runs are where entries get bigger.
		e.arenaBytes.Store(e.runner.ArenaFootprint())
		e.pool.noteFootprint()
	}
}

// optionsKey canonicalizes the result-affecting options fields into the
// cache key. Execution knobs (Parallel, RetrySequential) are the server's
// choice and bit-identical in results, so they are not part of identity.
func optionsKey(o apsp.Options) string {
	return fmt.Sprintf("%d/%d/%d/%d", o.Algorithm, o.HopParam, o.Bandwidth, o.Seed)
}

// serveQueries answers a run of queries: each distinct options key is
// computed at most once (first-appearance order), everything else is
// served from the per-version cache.
func (e *entry) serveQueries(run []*request) {
	version := e.version.Load()
	byKey := make(map[string][]*request)
	var order []string
	for _, r := range run {
		k := optionsKey(r.opts)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	for _, k := range order {
		group := byKey[k]
		e.mu.Lock()
		res, hit := e.cache[k]
		e.mu.Unlock()
		if hit {
			e.pool.met.Add("apspd_result_cache_hits_total", int64(len(group)))
			for _, r := range group {
				r.res, r.cached, r.version = res, true, version
				close(r.done)
			}
			continue
		}
		ctx, cancel := mergedContext(group)
		opts := group[0].opts
		opts.Parallel = e.pool.parallel
		res, err := e.runner.RunContext(ctx, opts)
		cancel()
		e.pool.met.Add("apspd_runs_total", 1)
		if err == nil {
			e.recordRun(res)
			e.mu.Lock()
			e.cache[k] = res
			e.mu.Unlock()
		}
		for _, r := range group {
			r.res, r.err, r.version = res, err, version
			close(r.done)
		}
	}
}

// applyCoalesced serves a run of update requests with ONE ApplyUpdates
// call over the concatenated batches, then splits the outcome back across
// the callers by the lowest failing index: callers whose slice lies
// entirely before a failure succeeded (their updates are applied), the
// caller owning the failing index gets the UpdateError rebased into its
// own batch, and callers after it get ErrAborted untouched.
func (e *entry) applyCoalesced(run []*request) {
	var all []apsp.EdgeUpdate
	starts := make([]int, len(run))
	for i, r := range run {
		starts[i] = len(all)
		all = append(all, r.ups...)
	}
	stats, err := e.runner.ApplyUpdates(all)
	failAt := len(all) // first never-attempted global index
	var ue *apsp.UpdateError
	if err != nil && errors.As(err, &ue) {
		failAt = ue.Index
	} else if err != nil {
		failAt = 0 // non-indexed failure: nothing is known applied
	}
	var jerr error
	if err == nil || failAt > 0 {
		// Some prefix (possibly all) of the concatenated updates applied:
		// the served graph moved, so bump the version and drop the cache.
		e.version.Add(1)
		e.mu.Lock()
		clear(e.cache)
		e.mu.Unlock()
		e.edges.Store(int64(e.runner.Graph().M()))
		e.digest.Store(e.runner.Graph().Digest())
		if e.journal != nil {
			// WAL contract: the accepted prefix must be journaled (and, under
			// FsyncAlways, synced) before any waiter learns its updates
			// applied. A journal failure does not undo the in-memory apply —
			// it fails the would-be-successful callers instead, below.
			accepted := all
			if err != nil {
				accepted = all[:failAt]
			}
			jerr = e.journal.append(&journalRecord{
				Kind:    recordKindUpdate,
				Version: e.version.Load(),
				Digest:  Key(e.digest.Load()),
				Updates: toRecordUpdates(accepted),
			})
		}
	}
	version := e.version.Load()
	met := e.pool.met
	met.Add("apspd_update_reused_total", int64(stats.Reused))
	met.Add("apspd_update_recomputed_total", int64(stats.Recomputed))
	if stats.FellBack {
		met.Add("apspd_update_fallbacks_total", 1)
	}
	for i, r := range run {
		start, end := starts[i], starts[i]+len(r.ups)
		r.ustats, r.version = stats, version
		switch {
		case err == nil || end <= failAt:
			// fully applied; jerr (nil in the durable happy path and always
			// when no journal is attached) surfaces a journal failure to the
			// callers whose durability it broke.
			r.err = jerr
		case ue != nil && start <= failAt:
			r.err = &apsp.UpdateError{Index: failAt - start, Err: ue.Err}
		case err != nil && start == 0 && ue == nil:
			r.err = err // non-indexed failure blames the whole batch head
		default:
			r.err = ErrAborted
		}
		close(r.done)
	}
	if e.journal != nil && jerr == nil && (err == nil || failAt > 0) {
		// Checkpoint cadence runs after the waiters are released — it is
		// maintenance, not part of any request's latency. A checkpoint
		// failure is counted (apspd_journal_errors_total) and leaves the
		// journal intact, which recovery handles fine; it never fails
		// requests.
		e.journal.maybeCheckpoint(e.runner.Graph(), version)
	}
}

// serveBlockers runs blocker-set constructions one by one (they are rare,
// read-only, and have no result cache).
func (e *entry) serveBlockers(run []*request) {
	version := e.version.Load()
	for _, r := range run {
		opt := r.bopt
		opt.Parallel = e.pool.parallel
		r.q, r.bstats, r.err = e.runner.BlockerSetContext(r.ctx, opt)
		r.version = version
		close(r.done)
	}
}

// recordRun folds a run's per-stage cost into the stage metrics.
func (e *entry) recordRun(res *apsp.Result) {
	met := e.pool.met
	for _, st := range res.Stats.Stages {
		met.Add(fmt.Sprintf("apspd_stage_rounds_total{stage=%q}", st.Name), int64(st.Rounds))
		met.AddFloat(fmt.Sprintf("apspd_stage_wall_seconds_total{stage=%q}", st.Name), st.WallMS/1000)
		met.Add(fmt.Sprintf("apspd_stage_allocs_total{stage=%q}", st.Name), int64(st.Allocs))
	}
}

// mergedContext builds the context a coalesced computation runs under: it
// carries the LATEST deadline among the waiters (none if any waiter is
// deadline-free) and is canceled only when EVERY waiter's context is done
// — one impatient caller must not kill a run other callers still want.
func mergedContext(group []*request) (context.Context, context.CancelFunc) {
	base, cancel := context.WithCancel(context.Background())
	ctx := context.Context(base)
	var dl time.Time
	bounded := true
	for _, r := range group {
		d, ok := r.ctx.Deadline()
		if !ok {
			bounded = false
			break
		}
		if d.After(dl) {
			dl = d
		}
	}
	dcancel := context.CancelFunc(func() {})
	if bounded {
		// Every waiter carries a deadline: the latest one alone governs
		// the run. No cancel watcher — racing it against the identical
		// deadline instant would non-deterministically report "canceled"
		// where "deadline exceeded" is the truth.
		ctx, dcancel = context.WithDeadline(base, dl)
	} else {
		// Some waiter is deadline-free: watch for every waiter going
		// away (client disconnects) and only then cancel the run.
		go func() {
			for _, r := range group {
				select {
				case <-r.ctx.Done():
				case <-base.Done():
					return
				}
			}
			cancel()
		}()
	}
	return ctx, func() { dcancel(); cancel() }
}

// EntryStats is the per-graph snapshot served by the stats endpoint.
// Digest is the CURRENT content digest (16 hex digits, same rendering as
// the load-time key): the crash-recovery harness compares it across a
// kill/restart to prove bit-identical state.
type EntryStats struct {
	Key     string `json:"graph"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Version uint64 `json:"version"`
	Digest  string `json:"digest"`
	Cached  int    `json:"cached_results"`
}

// Stats snapshots the entry. N and directedness are immutable; M and the
// cache size are maintained by the drain goroutine and read atomically /
// under the queue lock, so the snapshot is safe against in-flight batches.
func (e *entry) Stats() EntryStats {
	e.mu.Lock()
	cached := len(e.cache)
	e.mu.Unlock()
	return EntryStats{
		Key:     e.key,
		N:       e.runner.Graph().N(),
		M:       int(e.edges.Load()),
		Version: e.version.Load(),
		Digest:  Key(e.digest.Load()),
		Cached:  cached,
	}
}
