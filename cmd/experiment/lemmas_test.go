package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// lemmaReport renders tables for one execution mode with every oracle on.
func lemmaReport(t *testing.T, mode string, sizes []int, tables []lemmaTable) string {
	var buf bytes.Buffer
	l := lemmaRun{
		out: &buf, mode: mode, sizes: sizes, seeds: []int64{1}, check: true,
		ctx:         context.Background(),
		cellCtx:     func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
		interrupted: func() { t.Fatal("interrupted") },
	}
	for _, tab := range tables {
		tab.print(&l)
	}
	return buf.String()
}

// TestLemmaTablesPinned renders every -lemmas table seq and sharded
// (E7, whose full-space search is the slowest cell, seq only), requires
// the two renderings to match byte for byte, and pins the rows committed
// artifacts fix: E1's random-n64-s1 row is EXPERIMENTS.json's, and E7's
// rows are the Lemma 3.8 series, which do not depend on -sizes.
func TestLemmaTablesPinned(t *testing.T) {
	var tables []lemmaTable
	for _, tab := range lemmaTables {
		if tab.name != "goodset" {
			tables = append(tables, tab)
		}
	}
	ref := lemmaReport(t, "seq", []int{16}, tables)
	if got := lemmaReport(t, "sharded", []int{16}, tables); got != ref {
		t.Fatalf("sharded report diverged from seq:\n%s\nvs\n%s", got, ref)
	}
	goodset, _ := parseLemmas("goodset")
	table1, _ := parseLemmas("table1")
	ref += lemmaReport(t, "seq", nil, goodset) + lemmaReport(t, "seq", []int{64}, table1)
	for _, want := range []string{
		"| random-n64-s1 | 31789 | 4169 | 22546 | 30115 | 18 |",
		"| 12x3 | 48 | 0 | 0 | 0 | 0 | 0.000 | 0.125 |",
		"| 16x3 | 64 | 1 | 0 | 3504 | 4096 | 0.855 | 0.125 |",
		"| 20x3 | 80 | 1 | 0 | 14964 | 16384 | 0.913 | 0.125 |",
		"| 16x4 | 80 | 1 | 0 | 12497 | 16384 | 0.763 | 0.125 |",
	} {
		if !strings.Contains(ref, want+"\n") {
			t.Errorf("report lacks %q:\n%s", want, ref)
		}
	}
}
