package serve

import (
	"errors"
	"fmt"
	"sync"

	"congestapsp/internal/congest"
	"congestapsp/pkg/apsp"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when a graph's batch
// queue is at its depth cap: the daemon sheds load instead of queueing
// unboundedly. The request was not executed; retry after backoff.
var ErrOverloaded = errors.New("serve: queue full, request shed")

// ErrUnknownGraph is returned (HTTP 404) for a graph key the pool does not
// hold — never loaded, or evicted by the LRU cap. The graph must be
// (re)loaded via the load endpoint; content addressing makes the reload
// land on the same key.
var ErrUnknownGraph = errors.New("serve: unknown graph (not loaded, or evicted)")

// ErrAborted is returned (HTTP 409) to an update request whose coalesced
// batch was stopped by an EARLIER caller's failing update: none of this
// request's updates were attempted, and the graph advanced only by the
// batch prefix that preceded the failure.
var ErrAborted = errors.New("serve: update batch aborted by an earlier failure in its coalesced batch")

// Pool is a content-addressed LRU cache of warm Runners. The key is the
// graph's SplitMix64 digest (apsp.Graph.Digest) rendered as 16 hex digits,
// taken AT LOAD TIME: it names the graph the client loaded, and stays the
// handle for the entry's whole lifetime even as ApplyUpdates mutates the
// served graph away from the loaded content (re-keying on every update
// would invalidate clients' handles mid-conversation; the per-entry
// version count is the mutation clock instead).
//
// Eviction removes the entry from the map and nothing else: in-flight
// batches hold the entry pointer and drain normally on the warm Runner;
// later lookups get ErrUnknownGraph and the Runner is collected once the
// last batch lets go.
type Pool struct {
	mu       sync.Mutex
	max      int
	maxQueue int
	maxBytes int64
	parallel bool
	clock    uint64
	entries  map[string]*entry
	met      *Metrics

	// store is the durability root when the daemon runs with -data-dir
	// (nil otherwise). A durable pool journals every load and accepted
	// update batch, recovers evicted-or-restarted lineages from disk on
	// demand, and restricts eviction to idle entries (see evictLRULocked).
	store *Store
}

// NewPool builds a pool holding at most max warm Runners, each with a
// batch queue capped at maxQueue requests. parallel selects the execution
// mode of every pooled run (results are bit-identical either way).
// maxBytes, when positive, is a second eviction budget over the pool's
// approximate byte footprint (entry.approxBytes) enforced alongside the
// entry-count LRU.
func NewPool(max, maxQueue int, maxBytes int64, parallel bool, met *Metrics) *Pool {
	if max < 1 {
		max = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	return &Pool{
		max:      max,
		maxQueue: maxQueue,
		maxBytes: maxBytes,
		parallel: parallel,
		entries:  make(map[string]*entry),
		met:      met,
	}
}

// Key renders a graph digest as the pool's 16-hex-digit handle.
func Key(digest uint64) string { return fmt.Sprintf("%016x", digest) }

// setStore attaches the durability root. Called once, before the pool
// serves traffic (boot-time recovery precedes readiness).
func (p *Pool) setStore(st *Store) {
	p.mu.Lock()
	p.store = st
	p.mu.Unlock()
}

// Load warms a Runner for g and returns its key. Loading content the pool
// already holds is a hit: the existing entry is reused (and its LRU slot
// refreshed) — the caller's graph value is discarded, so "load the same
// edges twice" converges on one warm Runner no matter which client sent
// them. created reports whether a new Runner was built.
func (p *Pool) Load(g *apsp.Graph) (key string, created bool, err error) {
	return p.LoadOrigin(g, "")
}

// LoadOrigin is Load plus journal provenance: when the client loaded a
// named scenario, the durable load record stores the name instead of the
// edge list (the deterministic corpus reproduces the content on replay).
// On a durable pool, a key whose lineage already exists on disk — loaded
// in a previous process life, or evicted earlier in this one — is
// recovered from disk rather than re-created: the journaled lineage is
// authoritative, so the client's handle lands on the recovered version and
// client-visible versions stay monotonic even though the caller supplied
// the original (version-0) content.
func (p *Pool) LoadOrigin(g *apsp.Graph, scenario string) (key string, created bool, err error) {
	key = Key(g.Digest())
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		p.clock++
		e.lastUse = p.clock
		p.mu.Unlock()
		p.met.Add("apspd_pool_hits_total", 1)
		return key, false, nil
	}
	store := p.store
	p.mu.Unlock()
	if store != nil && store.HasGraph(key) {
		if _, err := p.recoverFromStore(key); err != nil {
			return "", false, err
		}
		return key, true, nil
	}
	// Build the Runner outside the pool lock: NewRunner constructs the
	// whole CONGEST network, and concurrent loads of other graphs must not
	// serialize behind it. A racing load of the SAME content is resolved
	// at insert (first one in wins, the loser's Runner is dropped).
	r, err := apsp.NewRunner(g)
	if err != nil {
		return "", false, err
	}
	var j *Journal
	if store != nil {
		// Journal the load BEFORE the entry becomes reachable: once any
		// client can reach the entry and mutate it, the lineage's first
		// record is already durable, so no accepted update can ever precede
		// its load record on disk.
		if j, err = store.CreateGraph(key, loadRecord(g, scenario)); err != nil {
			return "", false, err
		}
	}
	e := newEntry(key, r, p)
	e.journal = j
	p.mu.Lock()
	if prior, ok := p.entries[key]; ok {
		p.clock++
		prior.lastUse = p.clock
		p.mu.Unlock()
		p.met.Add("apspd_pool_hits_total", 1)
		return key, false, nil
	}
	p.clock++
	e.lastUse = p.clock
	p.entries[key] = e
	size, bytes := p.enforceLocked()
	p.mu.Unlock()
	p.met.Add("apspd_pool_misses_total", 1)
	p.met.Set("apspd_pool_size", int64(size))
	p.met.Set("apspd_pool_bytes", bytes)
	return key, true, nil
}

// bytesLocked sums the approximate byte footprint of every pooled entry.
// Callers hold p.mu.
func (p *Pool) bytesLocked() int64 {
	var b int64
	for _, e := range p.entries {
		b += e.approxBytes()
	}
	return b
}

// enforceLocked applies both eviction budgets — the entry-count cap and,
// when configured, the approximate-byte budget — and returns the surviving
// totals. The byte loop never evicts the last entry: a single graph larger
// than the budget still gets served (the budget bounds accumulation, not
// admission). Callers hold p.mu.
func (p *Pool) enforceLocked() (size int, bytes int64) {
	for len(p.entries) > p.max {
		if !p.evictLRULocked() {
			break
		}
	}
	bytes = p.bytesLocked()
	for p.maxBytes > 0 && bytes > p.maxBytes && len(p.entries) > 1 {
		if !p.evictLRULocked() {
			break
		}
		bytes = p.bytesLocked()
	}
	return len(p.entries), bytes
}

// noteFootprint re-applies the byte budget and refreshes the size/bytes
// gauges. Drain goroutines call it after serving a batch cycle: warm runs
// grow a Runner's arenas, so the pool's footprint moves between loads, not
// just at them.
func (p *Pool) noteFootprint() {
	p.mu.Lock()
	size, bytes := p.enforceLocked()
	p.mu.Unlock()
	p.met.Set("apspd_pool_size", int64(size))
	p.met.Set("apspd_pool_bytes", bytes)
}

// evictLRULocked removes the least-recently-used evictable entry and
// reports whether one was found. Callers hold p.mu.
//
// On a durable pool only IDLE entries (empty queue, not draining) are
// evictable, and the victim is marked closed so stale entry pointers get
// ErrUnknownGraph instead of enqueueing: an evicted-but-still-draining
// twin appending to the same journal as a freshly recovered replacement
// would fork the lineage. A transient nothing-evictable state just lets
// the pool run over its cap until entries go idle.
func (p *Pool) evictLRULocked() bool {
	var victim *entry
	var vkey string
	var oldest uint64
	for k, e := range p.entries {
		if p.store != nil && !e.idle() {
			continue
		}
		if victim == nil || e.lastUse < oldest {
			victim, vkey, oldest = e, k, e.lastUse
		}
	}
	if victim == nil {
		return false
	}
	if p.store != nil {
		victim.markClosed()
	}
	delete(p.entries, vkey)
	p.met.Add("apspd_pool_evictions_total", 1)
	return true
}

// Get returns the warm entry for key, refreshing its LRU slot. On a
// durable pool a miss with on-disk state recovers the lineage instead of
// failing: eviction (or a restart) is invisible to clients beyond latency.
func (p *Pool) Get(key string) (*entry, error) {
	p.mu.Lock()
	e, ok := p.entries[key]
	if ok {
		p.clock++
		e.lastUse = p.clock
	}
	store := p.store
	p.mu.Unlock()
	if !ok {
		if store != nil && store.HasGraph(key) {
			e, err := p.recoverFromStore(key)
			if err != nil {
				return nil, err
			}
			p.met.Add("apspd_pool_misses_total", 1)
			return e, nil
		}
		p.met.Add("apspd_pool_misses_total", 1)
		return nil, ErrUnknownGraph
	}
	p.met.Add("apspd_pool_hits_total", 1)
	return e, nil
}

// Len reports the number of pooled Runners.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// SetFaultInjector arms fi (nil disarms) on the pooled Runner for key —
// the serving end of the session's deterministic fault-injection
// instrument, used by the daemon fault-matrix suites. It reports whether
// the key was pooled.
func (p *Pool) SetFaultInjector(key string, fi congest.FaultInjector) bool {
	p.mu.Lock()
	e, ok := p.entries[key]
	p.mu.Unlock()
	if !ok {
		return false
	}
	e.runner.SetFaultInjector(fi)
	return true
}
