package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"congestapsp/internal/frame"
	"congestapsp/internal/graphio"
	"congestapsp/pkg/apsp"
)

// This file is the durability half of the serving layer (DESIGN.md §12):
// a per-graph append-only write-ahead journal of accepted mutations plus
// periodic checkpoint snapshots, laid out under one data directory:
//
//	<data-dir>/<key>/journal.wal      framed journal records (internal/frame)
//	<data-dir>/<key>/checkpoint.ckpt  meta frame + gob graph snapshot frame
//
// <key> is the pool's content-addressed handle (the 16-hex load-time
// digest), so the on-disk namespace IS the pool's namespace. Journal
// records carry the graph version and content digest AFTER the record
// applies, which makes recovery self-verifying: replay re-derives the
// state and refuses to serve a graph whose digest disagrees with what was
// journaled. Append ordering is the WAL contract the batcher enforces: a
// batch's journal append (and, under FsyncAlways, its fsync) happens
// before any of the batch's waiters are released, so every version a
// client has ever been shown is recoverable — client-visible versions are
// monotonic across restarts. recover.go is the boot-time consumer.

// FsyncPolicy selects when journal appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the journal after every appended record, before
	// the batch's waiters are released: an acknowledged version survives
	// even power loss. This is the default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval batches fsyncs on a timer (StoreOptions.FsyncInterval).
	// A SIGKILLed or crashed process loses nothing (the bytes are in the
	// page cache), but a power loss or kernel panic may lose the last
	// interval's acknowledged records; recovery still lands on a
	// self-consistent earlier version via torn-tail truncation.
	FsyncInterval
)

func (p FsyncPolicy) String() string {
	if p == FsyncInterval {
		return "interval"
	}
	return "always"
}

// ParseFsyncPolicy maps the -fsync flag spellings onto the policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("serve: unknown fsync policy %q (want always|interval)", s)
}

// StoreOptions configures a Store. The zero value picks the documented
// defaults (fsync always, checkpoint every 64 update records).
type StoreOptions struct {
	// Fsync is the journal sync policy.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval timer period (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery writes a checkpoint snapshot and truncates the
	// journal after this many journaled update records per graph
	// (default 64).
	CheckpointEvery int
	// MaxGraphN bounds the vertex count recovery will rebuild (default
	// 4096, matching Config.MaxGraphN): a corrupt or hostile record cannot
	// force an arbitrary allocation.
	MaxGraphN int
	// CrashSpec is a test-only instrument ("<point>:<n>", e.g.
	// "mid-record:2"): the store hard-kills the process (SIGKILL) at the
	// n-th occurrence of the named crash point, leaving the file system in
	// exactly the state a crash there would. Points: mid-record (half a
	// journal frame written), post-record (frame written, fsync skipped),
	// mid-checkpoint (half the checkpoint temp file written), post-truncate
	// (checkpoint durable, journal truncated). Empty disarms.
	CrashSpec string
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.MaxGraphN <= 0 {
		o.MaxGraphN = 4096
	}
	return o
}

// journalFile and checkpointFile are the fixed names inside a graph dir.
const (
	journalFile    = "journal.wal"
	checkpointFile = "checkpoint.ckpt"
)

// keyRE matches the pool's 16-hex graph handles; Store.Keys ignores
// anything else in the data dir (temp files, stray artifacts).
var keyRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// Store is the durability root: it owns the data directory, the open
// per-graph journals, the fsync timer (FsyncInterval policy), and the
// seeded crash-point instrument. One Store serves one daemon.
type Store struct {
	dir string
	opt StoreOptions
	met *Metrics

	mu       sync.Mutex
	journals map[string]*Journal
	closed   bool

	stop   chan struct{}
	syncWG sync.WaitGroup

	crashMu    sync.Mutex
	crashPoint string
	crashAt    int
	crashSeen  int
}

// OpenStore opens (creating if needed) the durability root at dir.
func OpenStore(dir string, opt StoreOptions, met *Metrics) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: OpenStore: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opt:      opt.withDefaults(),
		met:      met,
		journals: make(map[string]*Journal),
		stop:     make(chan struct{}),
	}
	if spec := s.opt.CrashSpec; spec != "" {
		point, at, ok := strings.Cut(spec, ":")
		s.crashPoint, s.crashAt = point, 1
		if ok {
			fmt.Sscanf(at, "%d", &s.crashAt)
		}
	}
	if s.opt.Fsync == FsyncInterval {
		s.syncWG.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

// Dir returns the durability root directory.
func (s *Store) Dir() string { return s.dir }

// Options returns the store's effective (defaulted) options.
func (s *Store) Options() StoreOptions { return s.opt }

// Close stops the fsync timer and syncs + closes every open journal. The
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	journals := make([]*Journal, 0, len(s.journals))
	for _, j := range s.journals {
		journals = append(journals, j)
	}
	s.mu.Unlock()
	close(s.stop)
	s.syncWG.Wait()
	var first error
	for _, j := range journals {
		if err := j.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncLoop is the FsyncInterval timer: every period it syncs the journals
// with unsynced appends.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	tick := time.NewTicker(s.opt.FsyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.mu.Lock()
			journals := make([]*Journal, 0, len(s.journals))
			for _, j := range s.journals {
				journals = append(journals, j)
			}
			s.mu.Unlock()
			for _, j := range journals {
				j.syncIfPending()
			}
		}
	}
}

// Keys lists the graph handles with on-disk state, sorted by directory
// iteration order of os.ReadDir (lexicographic, hence deterministic).
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		if e.IsDir() && keyRE.MatchString(e.Name()) {
			keys = append(keys, e.Name())
		}
	}
	return keys, nil
}

// HasGraph reports whether key has recoverable on-disk state (a checkpoint
// or a non-empty journal). A bare empty directory does not count.
func (s *Store) HasGraph(key string) bool {
	dir := filepath.Join(s.dir, key)
	if info, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil && info.Size() > 0 {
		return true
	}
	if info, err := os.Stat(filepath.Join(dir, journalFile)); err == nil && info.Size() > 0 {
		return true
	}
	return false
}

// journal returns the open Journal for key, opening (and creating) the
// journal file if needed. Callers hold no store lock.
func (s *Store) journal(key string) (*Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(key)
}

func (s *Store) journalLocked(key string) (*Journal, error) {
	if s.closed {
		return nil, fmt.Errorf("serve: store closed")
	}
	if j, ok := s.journals[key]; ok {
		return j, nil
	}
	dir := filepath.Join(s.dir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Make the journal's directory entry durable before anything is
	// appended: a record fsync is worthless if the file itself vanishes
	// with the directory's page-cache state.
	if err := graphio.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	if err := graphio.SyncDir(s.dir); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{key: key, store: s, f: f}
	s.journals[key] = j
	return j, nil
}

// CreateGraph initializes durable state for a freshly loaded graph: it
// opens the journal and appends the load record (the lineage's first
// entry) under the append fsync policy. If the journal is already open —
// a racing load of the same content — the existing lineage wins untouched.
func (s *Store) CreateGraph(key string, rec *journalRecord) (*Journal, error) {
	// The load record is appended while s.mu is still held: a racing load
	// of the same content blocks here and then finds the journal open, so
	// exactly one load record exists and it precedes every update record.
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.journals[key]; ok {
		return j, nil
	}
	j, err := s.journalLocked(key)
	if err != nil {
		return nil, err
	}
	if err := j.append(rec); err != nil {
		delete(s.journals, key)
		j.close()
		return nil, err
	}
	return j, nil
}

// crashArmed reports whether the named crash point should fire now (the
// occurrence counter matching the armed spec). The caller performs the
// point's partial-write behavior and then calls die.
func (s *Store) crashArmed(point string) bool {
	if s.crashPoint != point {
		return false
	}
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	s.crashSeen++
	return s.crashSeen == s.crashAt
}

// ---- journal ---------------------------------------------------------------

// journalRecord is one framed journal entry: what happened (a load or an
// accepted update batch) plus the graph version and 16-hex content digest
// AFTER the record applied — the self-verification recovery replays
// against. Load records carry the loaded content by scenario name (the
// deterministic corpus reproduces it) or inline edges; update records
// carry the accepted prefix of a coalesced batch.
type journalRecord struct {
	Kind     string         `json:"kind"` // "load" | "update"
	Version  uint64         `json:"version"`
	Digest   string         `json:"digest"`
	Scenario string         `json:"scenario,omitempty"`
	N        int            `json:"n,omitempty"`
	Directed bool           `json:"directed,omitempty"`
	Edges    [][3]int64     `json:"edges,omitempty"`
	Updates  []recordUpdate `json:"updates,omitempty"`
}

// recordUpdate is the journal form of one apsp.EdgeUpdate.
type recordUpdate struct {
	Op string `json:"op"` // set | insert | delete
	U  int    `json:"u"`
	V  int    `json:"v"`
	W  int64  `json:"w,omitempty"`
}

const (
	recordKindLoad   = "load"
	recordKindUpdate = "update"
)

// loadRecord builds the journal record for a freshly loaded graph: by
// scenario name when the client loaded one (compact, the corpus is
// deterministic), inline edges otherwise.
func loadRecord(g *apsp.Graph, scenario string) *journalRecord {
	rec := &journalRecord{
		Kind:    recordKindLoad,
		Version: 0,
		Digest:  Key(g.Digest()),
	}
	if scenario != "" {
		rec.Scenario = scenario
		return rec
	}
	rec.N = g.N()
	rec.Directed = g.Directed()
	rec.Edges = make([][3]int64, 0, g.M())
	g.Edges(func(u, v int, w int64) {
		rec.Edges = append(rec.Edges, [3]int64{int64(u), int64(v), w})
	})
	return rec
}

// toRecordUpdates maps an accepted update prefix onto the journal form.
func toRecordUpdates(ups []apsp.EdgeUpdate) []recordUpdate {
	out := make([]recordUpdate, len(ups))
	for i, u := range ups {
		op := "set"
		switch u.Op {
		case apsp.InsertEdge:
			op = "insert"
		case apsp.DeleteEdge:
			op = "delete"
		}
		out[i] = recordUpdate{Op: op, U: u.U, V: u.V, W: u.W}
	}
	return out
}

// parseRecordOp is the inverse of toRecordUpdates' op naming.
func parseRecordOp(op string) (apsp.UpdateOp, error) {
	switch op {
	case "set":
		return apsp.SetWeight, nil
	case "insert":
		return apsp.InsertEdge, nil
	case "delete":
		return apsp.DeleteEdge, nil
	}
	return 0, fmt.Errorf("serve: journal: unknown update op %q", op)
}

// Journal is one graph's append-only write-ahead log. Appends come from
// the graph's single drain goroutine (and, once, from the load path before
// the entry is reachable), but the mutex also serializes them against the
// interval fsync timer and against recovery reads of a live file.
type Journal struct {
	key   string
	store *Store

	mu               sync.Mutex
	f                *os.File
	pending          bool // appended bytes not yet fsynced (FsyncInterval)
	updatesSinceCkpt int
}

// append frames rec and appends it to the journal in one contiguous write
// (a crash can tear at most this one record), then applies the fsync
// policy. It returns only after the record is as durable as the policy
// promises — the caller releases the batch's waiters on success.
func (j *Journal) append(rec *journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", j.key, err)
	}
	buf, err := frame.Append(nil, payload)
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", j.key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal %s: closed", j.key)
	}
	if rec.Kind == recordKindUpdate && j.store.crashArmed("mid-record") {
		j.f.Write(buf[:len(buf)/2])
		j.store.die()
	}
	if _, err := j.f.Write(buf); err != nil {
		j.store.met.Add("apspd_journal_errors_total", 1)
		return fmt.Errorf("serve: journal %s: append: %w", j.key, err)
	}
	j.store.met.Add(fmt.Sprintf("apspd_journal_appends_total{kind=%q}", rec.Kind), 1)
	j.store.met.Add("apspd_journal_bytes_total", int64(len(buf)))
	if rec.Kind == recordKindUpdate && j.store.crashArmed("post-record") {
		j.store.die()
	}
	if j.store.opt.Fsync == FsyncAlways {
		if err := j.f.Sync(); err != nil {
			j.store.met.Add("apspd_journal_errors_total", 1)
			return fmt.Errorf("serve: journal %s: fsync: %w", j.key, err)
		}
		j.store.met.Add("apspd_journal_fsyncs_total", 1)
	} else {
		j.pending = true
	}
	if rec.Kind == recordKindUpdate {
		j.updatesSinceCkpt++
	}
	return nil
}

// syncIfPending flushes interval-policy appends to stable storage.
func (j *Journal) syncIfPending() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.pending || j.f == nil {
		return
	}
	if err := j.f.Sync(); err != nil {
		j.store.met.Add("apspd_journal_errors_total", 1)
		return
	}
	j.pending = false
	j.store.met.Add("apspd_journal_fsyncs_total", 1)
}

// maybeCheckpoint writes a checkpoint snapshot of g (at version) and
// truncates the journal once CheckpointEvery update records have
// accumulated since the last one. The caller is the graph's drain
// goroutine, which owns g between batches. The protocol order is what
// makes a crash anywhere harmless: the checkpoint lands durably (temp +
// fsync + rename + dir fsync) BEFORE the journal is truncated, and replay
// skips journal records at or below the checkpoint's version — so a crash
// between the two simply replays a prefix the checkpoint already covers.
func (j *Journal) maybeCheckpoint(g *apsp.Graph, version uint64) error {
	j.mu.Lock()
	due := j.updatesSinceCkpt >= j.store.opt.CheckpointEvery
	j.mu.Unlock()
	if !due {
		return nil
	}
	if err := j.store.writeCheckpoint(j.key, g, version); err != nil {
		j.store.met.Add("apspd_journal_errors_total", 1)
		return fmt.Errorf("serve: checkpoint %s: %w", j.key, err)
	}
	if err := j.truncate(); err != nil {
		j.store.met.Add("apspd_journal_errors_total", 1)
		return fmt.Errorf("serve: journal %s: truncate: %w", j.key, err)
	}
	j.store.met.Add("apspd_checkpoints_total", 1)
	if j.store.crashArmed("post-truncate") {
		j.store.die()
	}
	return nil
}

// truncate empties the journal after a durable checkpoint superseded it.
func (j *Journal) truncate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal %s: closed", j.key)
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = false
	j.updatesSinceCkpt = 0
	return nil
}

// close syncs and closes the journal file.
func (j *Journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ---- checkpoint ------------------------------------------------------------

// checkpointMeta is the first frame of a checkpoint file: which lineage
// this snapshot belongs to, the version it captures, and the content
// digest the decoded graph must reproduce.
type checkpointMeta struct {
	Key     string `json:"key"`
	Version uint64 `json:"version"`
	Digest  string `json:"digest"`
}

// writeCheckpoint lands a durable snapshot of g at version: a meta frame
// plus a gob graph frame, written through the temp+fsync+rename+dirsync
// discipline so the checkpoint file is always either the old complete
// snapshot or the new complete snapshot. The mid-checkpoint crash point
// abandons a half-written temp file, which recovery ignores and removes.
func (s *Store) writeCheckpoint(key string, g *apsp.Graph, version uint64) error {
	meta, err := json.Marshal(checkpointMeta{Key: key, Version: version, Digest: Key(g.Digest())})
	if err != nil {
		return err
	}
	var gob bytes.Buffer
	if err := apsp.WriteGraph(&gob, g, apsp.FormatGob); err != nil {
		return err
	}
	buf, err := frame.Append(nil, meta)
	if err != nil {
		return err
	}
	if buf, err = frame.Append(buf, gob.Bytes()); err != nil {
		return err
	}
	dir := filepath.Join(s.dir, key)
	path := filepath.Join(dir, checkpointFile)
	if s.crashArmed("mid-checkpoint") {
		// Simulate dying halfway through the temp write: the abandoned
		// temp is all a crash there leaves behind.
		tmp, terr := os.CreateTemp(dir, ".ckpt-*")
		if terr == nil {
			tmp.Write(buf[:len(buf)/2])
		}
		s.die()
	}
	return graphio.WriteFileAtomic(path, buf)
}

// readCheckpoint loads and verifies key's checkpoint snapshot. It returns
// (nil, 0, nil) when no checkpoint exists. Any malformed or
// digest-divergent checkpoint is an error — checkpoints are written
// atomically, so unlike a journal tail there is no innocent way for one
// to be torn.
func (s *Store) readCheckpoint(key string) (*apsp.Graph, uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, key, checkpointFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	metaRaw, n, err := frame.Next(data)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: meta frame: %w", key, err)
	}
	var meta checkpointMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: meta: %w", key, err)
	}
	if meta.Key != key {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: names lineage %s", key, meta.Key)
	}
	snap, n2, err := frame.Next(data[n:])
	if err != nil {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: snapshot frame: %w", key, err)
	}
	if n+n2 != len(data) {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: %d trailing bytes", key, len(data)-n-n2)
	}
	g, err := apsp.ReadGraph(bytes.NewReader(snap), apsp.FormatGob)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: %w", key, err)
	}
	if g.N() > s.opt.MaxGraphN {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: n %d exceeds cap %d", key, g.N(), s.opt.MaxGraphN)
	}
	if got := Key(g.Digest()); got != meta.Digest {
		return nil, 0, fmt.Errorf("serve: checkpoint %s: digest %s, recorded %s", key, got, meta.Digest)
	}
	return g, meta.Version, nil
}
