package serve

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// loadTranscript runs the seeded load generator at concurrency 1 against
// a FRESH daemon and returns the transcript bytes.
func loadTranscript(t *testing.T, mix string) []byte {
	t.Helper()
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	var buf bytes.Buffer
	_, err := RunLoad(LoadConfig{
		BaseURL:    srv.URL,
		Client:     srv.Client(),
		Seed:       5,
		Mix:        mix,
		Scenario:   "random-n16-s2",
		Requests:   12,
		Transcript: &buf,
	})
	if err != nil {
		t.Fatalf("mix %s: %v", mix, err)
	}
	return buf.Bytes()
}

// TestLoadgenTranscriptDeterministic is the end-to-end determinism
// contract: a fixed-seed apspload run against a fresh daemon produces a
// byte-stable transcript — across repeated runs AND across GOMAXPROCS
// values, because every wire answer is a pure function of the request
// sequence, never of scheduling. Each transcript also starts with the
// default-options warm-up query, ahead of the 12 timed requests.
func TestLoadgenTranscriptDeterministic(t *testing.T) {
	mixes := Mixes()
	if testing.Short() {
		mixes = mixes[:1]
	}
	for _, mix := range mixes {
		t.Run(mix, func(t *testing.T) {
			base := loadTranscript(t, mix)
			_, first, _ := strings.Cut(string(base), "POST ")
			if entry := strings.SplitN(first, "\n", 3); len(entry) < 3 || !strings.HasSuffix(entry[0], "/query") ||
				entry[1] != `{"pairs":[[0,0]]}` || !strings.HasPrefix(entry[2], "200 ") {
				t.Fatalf("the first request is not the warm-up query:\n%s", base)
			}
			if posts := bytes.Count(base, []byte("POST ")); posts != 12+1 {
				t.Fatalf("%d requests, want the 12 timed ones and the warm-up", posts)
			}
			if again := loadTranscript(t, mix); !bytes.Equal(base, again) {
				t.Fatalf("transcript differs between two identical runs:\n--- first\n%s\n--- second\n%s", base, again)
			}
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, gm := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(gm)
				if got := loadTranscript(t, mix); !bytes.Equal(base, got) {
					t.Fatalf("transcript differs at GOMAXPROCS=%d", gm)
				}
			}
		})
	}
}
