// Package serve is the APSP-as-a-service layer: a content-addressed pool
// of warm apsp.Runners, a per-graph batcher that coalesces concurrent
// query/update traffic into single warm-session calls, and an HTTP JSON
// front end (cmd/apspd) with a deterministic load generator (cmd/apspload)
// driving it. DESIGN.md §11 is the architecture note.
package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Metrics is the daemon's instrumentation registry: counters and gauges
// keyed by their full Prometheus series name (labels inlined, e.g.
// `apspd_batches_total{kind="query"}`), rendered as the standard text
// exposition format. It is deliberately hand-rolled — the repo takes no
// dependencies — but keeps the two properties scrapers rely on: monotone
// counters and a stable, sorted rendering (byte-identical for identical
// states, so transcript tests can cover it).
type Metrics struct {
	mu     sync.Mutex
	ints   map[string]int64
	floats map[string]float64
	gauges map[string]int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		ints:   make(map[string]int64),
		floats: make(map[string]float64),
		gauges: make(map[string]int64),
	}
}

// Add increments counter series by v.
func (m *Metrics) Add(series string, v int64) {
	m.mu.Lock()
	m.ints[series] += v
	m.mu.Unlock()
}

// AddFloat increments a float counter series (stage wall-clock seconds).
func (m *Metrics) AddFloat(series string, v float64) {
	m.mu.Lock()
	m.floats[series] += v
	m.mu.Unlock()
}

// Set sets gauge series to v.
func (m *Metrics) Set(series string, v int64) {
	m.mu.Lock()
	m.gauges[series] = v
	m.mu.Unlock()
}

// SetMax raises gauge series to v if v is larger (high-water marks).
func (m *Metrics) SetMax(series string, v int64) {
	m.mu.Lock()
	if v > m.gauges[series] {
		m.gauges[series] = v
	}
	m.mu.Unlock()
}

// Get reads a counter (0 when the series never fired).
func (m *Metrics) Get(series string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ints[series]
}

// GetGauge reads a gauge (0 when the series was never set).
func (m *Metrics) GetGauge(series string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[series]
}

// family strips the label block: `a_total{kind="x"}` -> `a_total`.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// familyHelp documents each metric family for the # HELP line. Families
// absent from the table still render (with a generic help line), so adding
// a series never silently breaks the endpoint.
var familyHelp = map[string]string{
	"apspd_pool_hits_total":           "graph loads and lookups answered by an already-warm Runner",
	"apspd_pool_misses_total":         "graph loads that had to build a new Runner",
	"apspd_pool_evictions_total":      "warm Runners evicted by the pool's LRU cap or byte budget",
	"apspd_pool_size":                 "warm Runners currently pooled",
	"apspd_pool_bytes":                "approximate bytes held by pooled entries (n^2 result matrices plus warm-arena high water)",
	"apspd_shed_total":                "requests shed by the per-graph queue-depth cap (HTTP 429)",
	"apspd_queue_depth_max":           "high-water mark of a per-graph batch queue",
	"apspd_batches_total":             "coalesced batches drained, by request kind",
	"apspd_batched_requests_total":    "requests served through coalesced batches, by kind",
	"apspd_batch_size_max":            "largest coalesced batch drained",
	"apspd_result_cache_hits_total":   "queries answered from the per-version result cache",
	"apspd_runs_total":                "warm APSP runs executed on pooled Runners",
	"apspd_update_reused_total":       "label systems reused across served update batches",
	"apspd_update_recomputed_total":   "label systems recomputed across served update batches",
	"apspd_update_fallbacks_total":    "served update batches that fell back to full recompute",
	"apspd_http_requests_total":       "HTTP requests served, by status code",
	"apspd_ready":                     "1 once boot recovery finished and /v1 traffic is accepted",
	"apspd_journal_appends_total":     "journal records appended, by record kind",
	"apspd_journal_bytes_total":       "bytes appended to write-ahead journals (framing included)",
	"apspd_journal_fsyncs_total":      "journal fsyncs issued (per-append or interval, by policy)",
	"apspd_journal_errors_total":      "journal append, fsync, checkpoint, or truncate failures",
	"apspd_checkpoints_total":         "checkpoint snapshots written (each truncates its journal)",
	"apspd_recovery_graphs_total":     "graph lineages recovered from durable state",
	"apspd_recovery_records_total":    "journal update records replayed during recovery",
	"apspd_recovery_torn_tails_total": "torn or corrupt journal tails truncated during recovery",
	"apspd_stage_rounds_total":        "simulated CONGEST rounds charged, by pipeline stage",
	"apspd_stage_wall_seconds_total":  "host wall-clock spent, by pipeline stage",
	"apspd_stage_allocs_total":        "heap allocations performed, by pipeline stage",
}

// WriteText renders the registry in Prometheus text exposition format,
// families sorted, series sorted within each family.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	type series struct {
		name  string
		val   string
		gauge bool
	}
	all := make([]series, 0, len(m.ints)+len(m.floats)+len(m.gauges))
	for k, v := range m.ints {
		all = append(all, series{k, fmt.Sprintf("%d", v), false})
	}
	for k, v := range m.floats {
		all = append(all, series{k, fmt.Sprintf("%g", v), false})
	}
	for k, v := range m.gauges {
		all = append(all, series{k, fmt.Sprintf("%d", v), true})
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	lastFam := ""
	for _, s := range all {
		fam := family(s.name)
		if fam != lastFam {
			help := familyHelp[fam]
			if help == "" {
				help = "apspd metric"
			}
			typ := "counter"
			if s.gauge {
				typ = "gauge"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, typ); err != nil {
				return err
			}
			lastFam = fam
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.val); err != nil {
			return err
		}
	}
	return nil
}
