package serve

import (
	"encoding/json"
	"testing"

	"congestapsp/internal/frame"
	"congestapsp/pkg/apsp"
)

// FuzzQueryRequest hammers the HTTP query decoder with arbitrary bytes.
// The decoder's contract is totality plus validated output: any input
// either errors or yields a request whose invariants hold (exactly one
// selector, every vertex in range, batch within cap, non-negative
// deadline) — never a panic, and never an accepted request that would
// index out of bounds downstream. The committed corpus under
// testdata/fuzz/FuzzQueryRequest pins the malformed shapes the serving
// layer must reject: conflicting selectors, negative deadlines, oversized
// batches, out-of-range vertices, unknown fields and algorithms.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"pairs":[[0,5],[3,3]],"paths":true}`))
	f.Add([]byte(`{"full":true,"algorithm":"det32","hop_param":4}`))
	f.Add([]byte(`{"source":7,"deadline_ms":250}`))
	f.Add([]byte(`{"full":true,"pairs":[[0,1]]}`))
	f.Add([]byte(`{"full":true,"deadline_ms":-1}`))
	f.Add([]byte(`{"pairs":[[15,16]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"algorithm":"dijkstra","full":true}`))
	f.Add([]byte(`{"full":true,"hop_param":-3}`))
	f.Add([]byte(`{"source":-1}`))
	f.Add([]byte(`{"paths":true}`))
	const n, maxBatch = 16, 8
	f.Fuzz(func(t *testing.T, data []byte) {
		q, opt, err := decodeQueryRequest(data, n, maxBatch)
		if err != nil {
			if q != nil {
				t.Fatal("error return must not carry a request")
			}
			return
		}
		selectors := 0
		if len(q.Pairs) > 0 {
			selectors++
		}
		if q.Source != nil {
			selectors++
		}
		if q.Full {
			selectors++
		}
		if selectors != 1 {
			t.Fatalf("accepted request with %d selectors: %+v", selectors, q)
		}
		if len(q.Pairs) > maxBatch {
			t.Fatalf("accepted oversized batch of %d pairs", len(q.Pairs))
		}
		for _, p := range q.Pairs {
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				t.Fatalf("accepted out-of-range pair %v", p)
			}
		}
		if q.Source != nil && (*q.Source < 0 || *q.Source >= n) {
			t.Fatalf("accepted out-of-range source %d", *q.Source)
		}
		if q.Paths && len(q.Pairs) == 0 {
			t.Fatal("accepted paths without pairs")
		}
		if q.DeadlineMS < 0 {
			t.Fatalf("accepted negative deadline %d", q.DeadlineMS)
		}
		if opt.HopParam < 0 || opt.HopParam > n {
			t.Fatalf("accepted out-of-range hop_param %d", opt.HopParam)
		}
		if opt.Bandwidth < 0 {
			t.Fatalf("accepted negative bandwidth %d", opt.Bandwidth)
		}
	})
}

// fuzzJournalImage builds a well-formed journal byte image — an inline
// load record plus two update records, each with the correct post-apply
// digest — the shape every real journal has. Fuzz mutations of it explore
// the interesting neighborhood: bit-flipped digests, reordered versions,
// spliced frames, torn tails.
func fuzzJournalImage(f *testing.F) []byte {
	g := apsp.NewGraph(4, false)
	for _, e := range [][3]int64{{0, 1, 3}, {1, 2, 5}, {2, 3, 2}, {0, 3, 9}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			f.Fatal(err)
		}
	}
	var buf []byte
	appendRec := func(rec *journalRecord) {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		if buf, err = frame.Append(buf, payload); err != nil {
			f.Fatal(err)
		}
	}
	load := loadRecord(g, "")
	appendRec(load)
	for i, up := range []apsp.EdgeUpdate{
		{Op: apsp.SetWeight, U: 0, V: 1, W: 11},
		{Op: apsp.InsertEdge, U: 1, V: 3, W: 4},
	} {
		if err := g.ApplyUpdate(up); err != nil {
			f.Fatal(err)
		}
		appendRec(&journalRecord{
			Kind:    recordKindUpdate,
			Version: uint64(i + 1),
			Digest:  Key(g.Digest()),
			Updates: toRecordUpdates([]apsp.EdgeUpdate{up}),
		})
	}
	return buf
}

// FuzzJournalReplay hammers the recovery read path with arbitrary journal
// byte images. The contract is totality and containment: decoding never
// panics, the reported intact-prefix boundary always lies inside the
// input, a clean decode consumes every byte, a torn tail is reported as
// torn (recovery truncates it) and never as a fatal error, and a replay
// that succeeds yields a real graph within the vertex cap whose digest
// matched every record — a hostile journal can fail recovery, but can
// never crash it or smuggle in unverified state.
func FuzzJournalReplay(f *testing.F) {
	intact := fuzzJournalImage(f)
	f.Add(intact)
	f.Add(intact[:len(intact)-3])               // torn final frame
	f.Add(intact[:12])                          // torn first frame
	f.Add([]byte{})                             // empty journal
	f.Add([]byte("\x00\x00\x00\x05garbage"))    // plausible length, bad CRC
	f.Add([]byte("\xff\xff\xff\xffxxxxxxxxxx")) // absurd length word
	corrupt := append([]byte(nil), intact...)
	corrupt[len(corrupt)/2] ^= 0x40 // likely lands in a digest or version
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, torn, err := decodeJournalBytes(data)
		if good < 0 || good > len(data) {
			t.Fatalf("intact boundary %d outside input of %d bytes", good, len(data))
		}
		if err == nil && !torn && good != len(data) {
			t.Fatalf("clean decode stopped at %d of %d bytes", good, len(data))
		}
		if torn && err != nil {
			t.Fatalf("torn tail reported as fatal: %v", err)
		}
		if err != nil {
			return
		}
		const maxN = 64
		g, _, applied, rerr := replayJournal(recs, nil, 0, maxN)
		if rerr != nil {
			return
		}
		if g == nil {
			t.Fatal("successful replay returned no graph")
		}
		if g.N() < 1 || g.N() > maxN {
			t.Fatalf("replay accepted graph with n=%d outside [1,%d]", g.N(), maxN)
		}
		if applied > len(recs) {
			t.Fatalf("replayed %d update records from %d records", applied, len(recs))
		}
		// Per-record digest verification is internal to replayJournal: any
		// record it applies whose post-apply digest disagrees with what was
		// journaled is a returned error, so reaching here means every
		// applied record proved itself.
	})
}
