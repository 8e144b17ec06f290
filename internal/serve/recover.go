package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"congestapsp/internal/frame"
	"congestapsp/pkg/apsp"
)

// This file is the read side of the durability layer: decoding a journal
// byte image, replaying it (on top of a checkpoint when one exists) into
// the graph state the last acknowledged version had, and the boot-time
// sweep that re-registers every recovered lineage in the pool before the
// daemon reports ready. The replay is self-verifying — every journal
// record carries the content digest the graph must have after it applies,
// and a mismatch is fatal for that lineage rather than silently served.

// decodeJournalBytes walks a journal byte image frame by frame. It returns
// the decoded records, the byte offset of the last intact frame boundary
// (goodLen), and whether the image ends in a torn or corrupt frame — the
// state a crash mid-append leaves, which recovery handles by truncating
// the file at goodLen. A frame that passes its checksum but does not parse
// as a record is NOT torn — appends are contiguous single writes, so an
// intact frame with garbage inside means real corruption or a software
// bug, and that is a returned error, never a silent truncation.
//
// The function is total over arbitrary input (the FuzzJournalReplay
// contract): any byte slice returns records, a boundary, and flags —
// never a panic.
func decodeJournalBytes(data []byte) (recs []*journalRecord, goodLen int, torn bool, err error) {
	off := 0
	for {
		payload, n, ferr := frame.Next(data[off:])
		if errors.Is(ferr, io.EOF) {
			return recs, off, false, nil
		}
		if ferr != nil {
			return recs, off, true, nil
		}
		rec := new(journalRecord)
		if jerr := json.Unmarshal(payload, rec); jerr != nil {
			return recs, off, false, fmt.Errorf("record %d: %w", len(recs), jerr)
		}
		off += n
		recs = append(recs, rec)
	}
}

// buildLoadRecord reconstructs the graph content a load record named:
// by re-generating the deterministic scenario, or from the inline edges.
func buildLoadRecord(rec *journalRecord, maxN int) (*apsp.Graph, error) {
	if rec.Scenario != "" {
		sc, err := apsp.ParseScenario(rec.Scenario)
		if err != nil {
			return nil, err
		}
		if sc.N > maxN {
			return nil, fmt.Errorf("scenario n %d exceeds cap %d", sc.N, maxN)
		}
		return sc.Build()
	}
	if rec.N < 1 || rec.N > maxN {
		return nil, fmt.Errorf("n %d out of range [1, %d]", rec.N, maxN)
	}
	g := apsp.NewGraph(rec.N, rec.Directed)
	for i, e := range rec.Edges {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

// replayJournal folds decoded journal records into a graph, starting from
// ckpt (at ckptVersion) when a checkpoint exists, nil otherwise. Records
// at or below the checkpoint's version are skipped — that is what makes a
// crash between "checkpoint durable" and "journal truncated" harmless.
// Every applied record's resulting digest is checked against the digest
// the record journaled; any disagreement (also: a missing load record,
// non-contiguous versions, out-of-range endpoints, unknown ops) is an
// error. applied counts replayed UPDATE records, which is exactly the
// journal's distance past the checkpoint (the checkpoint-cadence counter
// resumes from it).
func replayJournal(recs []*journalRecord, ckpt *apsp.Graph, ckptVersion uint64, maxN int) (g *apsp.Graph, version uint64, applied int, err error) {
	g, version = ckpt, ckptVersion
	for i, rec := range recs {
		if g != nil && rec.Version <= version {
			continue
		}
		switch rec.Kind {
		case recordKindLoad:
			if g != nil {
				return nil, 0, 0, fmt.Errorf("record %d: duplicate load record", i)
			}
			if rec.Version != 0 {
				return nil, 0, 0, fmt.Errorf("record %d: load record at version %d", i, rec.Version)
			}
			if g, err = buildLoadRecord(rec, maxN); err != nil {
				return nil, 0, 0, fmt.Errorf("record %d: %w", i, err)
			}
			version = 0
		case recordKindUpdate:
			if g == nil {
				return nil, 0, 0, fmt.Errorf("record %d: update record before any load", i)
			}
			if rec.Version != version+1 {
				return nil, 0, 0, fmt.Errorf("record %d: version %d after %d (journal gap)", i, rec.Version, version)
			}
			n := g.N()
			for j, ru := range rec.Updates {
				op, perr := parseRecordOp(ru.Op)
				if perr != nil {
					return nil, 0, 0, fmt.Errorf("record %d update %d: %w", i, j, perr)
				}
				if ru.U < 0 || ru.U >= n || ru.V < 0 || ru.V >= n {
					return nil, 0, 0, fmt.Errorf("record %d update %d: edge (%d,%d) out of range [0,%d)", i, j, ru.U, ru.V, n)
				}
				if aerr := g.ApplyUpdate(apsp.EdgeUpdate{Op: op, U: ru.U, V: ru.V, W: ru.W}); aerr != nil {
					return nil, 0, 0, fmt.Errorf("record %d update %d: %w", i, j, aerr)
				}
			}
			version = rec.Version
			applied++
		default:
			return nil, 0, 0, fmt.Errorf("record %d: unknown kind %q", i, rec.Kind)
		}
		if got := Key(g.Digest()); got != rec.Digest {
			return nil, 0, 0, fmt.Errorf("record %d: digest %s, journaled %s", i, got, rec.Digest)
		}
	}
	if g == nil {
		return nil, 0, 0, fmt.Errorf("no checkpoint and no load record")
	}
	return g, version, applied, nil
}

// Recover rebuilds key's graph from its durable state: latest checkpoint
// (if any) plus the journal tail beyond it. A torn or corrupt final frame
// — the damage a crash mid-append can leave — is truncated away, not
// fatal; everything before it is intact by CRC. The journal is left open
// for appends with its checkpoint-cadence counter resumed, and abandoned
// temp files (a crash mid-checkpoint) are swept.
func (s *Store) Recover(key string) (*apsp.Graph, uint64, *Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, nil, fmt.Errorf("serve: store closed")
	}
	dir := filepath.Join(s.dir, key)
	for _, pat := range []string{".ckpt-*", ".graphio-*"} {
		if stray, _ := filepath.Glob(filepath.Join(dir, pat)); stray != nil {
			for _, p := range stray {
				os.Remove(p)
			}
		}
	}
	ckpt, ckptVersion, err := s.readCheckpoint(key)
	if err != nil {
		return nil, 0, nil, err
	}
	// If the journal is already open in-process (the key was evicted and is
	// being re-recovered), freeze it while reading; eviction requires the
	// entry idle and closed, so no appender is mid-write, but the lock makes
	// that invariant local.
	j := s.journals[key]
	path := filepath.Join(dir, journalFile)
	if j != nil {
		j.mu.Lock()
	}
	data, rerr := os.ReadFile(path)
	if j != nil {
		j.mu.Unlock()
	}
	if rerr != nil && !os.IsNotExist(rerr) {
		return nil, 0, nil, rerr
	}
	recs, good, torn, derr := decodeJournalBytes(data)
	if derr != nil {
		return nil, 0, nil, fmt.Errorf("serve: journal %s: %w", key, derr)
	}
	if torn {
		if j != nil {
			j.mu.Lock()
			terr := j.f.Truncate(int64(good))
			j.mu.Unlock()
			if terr != nil {
				return nil, 0, nil, fmt.Errorf("serve: journal %s: truncating torn tail: %w", key, terr)
			}
		} else if terr := os.Truncate(path, int64(good)); terr != nil {
			return nil, 0, nil, fmt.Errorf("serve: journal %s: truncating torn tail: %w", key, terr)
		}
		s.met.Add("apspd_recovery_torn_tails_total", 1)
	}
	g, version, applied, err := replayJournal(recs, ckpt, ckptVersion, s.opt.MaxGraphN)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("serve: journal %s: %w", key, err)
	}
	if j == nil {
		if j, err = s.journalLocked(key); err != nil {
			return nil, 0, nil, err
		}
	}
	j.mu.Lock()
	j.updatesSinceCkpt = applied
	j.mu.Unlock()
	s.met.Add("apspd_recovery_records_total", int64(applied))
	return g, version, j, nil
}

// recoverFromStore rebuilds key's entry from disk and registers it in the
// pool at the recovered version — the client-visible version clock carries
// on exactly where the acknowledged history left it.
func (p *Pool) recoverFromStore(key string) (*entry, error) {
	p.mu.Lock()
	store := p.store
	p.mu.Unlock()
	if store == nil {
		return nil, ErrUnknownGraph
	}
	g, version, j, err := store.Recover(key)
	if err != nil {
		return nil, err
	}
	r, err := apsp.NewRunner(g)
	if err != nil {
		return nil, err
	}
	e := newEntry(key, r, p)
	e.journal = j
	e.version.Store(version)
	p.mu.Lock()
	if prior, ok := p.entries[key]; ok {
		// A racing recovery (or load) registered the key first: one winner,
		// same on-disk lineage either way.
		p.clock++
		prior.lastUse = p.clock
		p.mu.Unlock()
		return prior, nil
	}
	p.clock++
	e.lastUse = p.clock
	p.entries[key] = e
	for len(p.entries) > p.max {
		if !p.evictLRULocked() {
			break
		}
	}
	size := len(p.entries)
	p.mu.Unlock()
	p.met.Set("apspd_pool_size", int64(size))
	p.met.Add("apspd_recovery_graphs_total", 1)
	return e, nil
}

// RecoveryProgress is the /readyz payload: whether the daemon serves
// traffic yet and, during boot recovery, how far the replay has come.
type RecoveryProgress struct {
	Ready           bool   `json:"ready"`
	GraphsTotal     int    `json:"graphs_total"`
	GraphsDone      int    `json:"graphs_done"`
	RecordsReplayed int64  `json:"records_replayed"`
	Current         string `json:"current,omitempty"`
}

// BeginRecovery flips the service to not-ready (every /v1/* request gets
// 503 with recovery progress) ahead of Recover. Call it before the HTTP
// listener starts serving so no request can slip through pre-recovery
// state; Recover calls it again harmlessly.
func (s *Service) BeginRecovery() {
	s.ready.Store(false)
	s.met.Set("apspd_ready", 0)
}

// Recover opens the durability store at dataDir and replays every on-disk
// lineage into the pool, then marks the service ready. Any lineage that
// fails its self-verification (digest mismatch, journal gap, malformed
// record beyond a torn tail) fails recovery outright — the daemon refuses
// to start rather than serve state it cannot prove. Call once, before
// serving /v1 traffic; with no data dir configured, skip it (New starts
// ready).
func (s *Service) Recover(dataDir string, opt StoreOptions) error {
	s.BeginRecovery()
	if opt.MaxGraphN <= 0 {
		opt.MaxGraphN = s.cfg.MaxGraphN
	}
	st, err := OpenStore(dataDir, opt, s.met)
	if err != nil {
		return err
	}
	s.store = st
	s.pool.setStore(st)
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	s.setProgress(func(p *RecoveryProgress) { p.GraphsTotal = len(keys) })
	for _, key := range keys {
		if !st.HasGraph(key) {
			// An empty directory (e.g. a crash after mkdir, before the load
			// record landed) has nothing to recover and nothing to lose.
			s.setProgress(func(p *RecoveryProgress) { p.GraphsDone++ })
			continue
		}
		s.setProgress(func(p *RecoveryProgress) { p.Current = key })
		if _, err := s.pool.recoverFromStore(key); err != nil {
			return fmt.Errorf("recovering graph %s: %w", key, err)
		}
		s.setProgress(func(p *RecoveryProgress) {
			p.GraphsDone++
			p.Current = ""
			p.RecordsReplayed = s.met.Get("apspd_recovery_records_total")
		})
	}
	s.ready.Store(true)
	s.met.Set("apspd_ready", 1)
	return nil
}

func (s *Service) setProgress(f func(*RecoveryProgress)) {
	s.recMu.Lock()
	f(&s.prog)
	s.recMu.Unlock()
}

// Progress snapshots recovery state for /readyz.
func (s *Service) Progress() RecoveryProgress {
	s.recMu.Lock()
	p := s.prog
	s.recMu.Unlock()
	p.Ready = s.ready.Load()
	return p
}

// Ready reports whether the service accepts /v1 traffic.
func (s *Service) Ready() bool { return s.ready.Load() }

// Close releases the durability store (fsync + close every journal). The
// HTTP server must be drained first.
func (s *Service) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Store exposes the durability root (tests); nil without -data-dir.
func (s *Service) Store() *Store { return s.store }
