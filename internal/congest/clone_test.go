package congest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"congestapsp/internal/graph"
)

// withWorkers pins GOMAXPROCS to n for the duration of a test so the
// work-stealing dispatcher genuinely runs n workers even on small CI hosts.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// floodFor runs a tiny flood protocol on w whose cost is a deterministic
// function of the sub-run index: source i%n floods its id for depth+1
// rounds. It stands in for the per-source SSSPs of the pipeline.
func floodFor(w *Network, i int) error {
	n := w.N()
	src := i % n
	depth := i%3 + 1
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if round < depth && (v == src || len(in) > 0) {
			for li := range w.Neighbors(v) {
				send(Message{Link: int32(li), Kind: 77, A: int64(i)})
			}
		}
		return round >= depth
	})
	return w.RunFor(p, depth+1)
}

// TestShardRunsWorkStealingStatsIdentical pins the scheduler's merge
// contract: for skewed per-index costs and several worker counts, the
// merged Stats after a work-stealing dispatch are bit-identical to the
// sequential schedule (exact integer sums commute, and each sub-run runs
// on exactly one deterministic engine).
func TestShardRunsWorkStealingStatsIdentical(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 40, Seed: 5, MaxWeight: 9}, 120)
	const count = 61
	run := func(workers int) Stats {
		if workers > 0 {
			withWorkers(t, workers)
		}
		nw, err := NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		nw.Parallel = workers > 0
		if err := nw.ShardRuns(count, floodFor); err != nil {
			t.Fatal(err)
		}
		return nw.Stats
	}
	seq := run(0)
	for _, workers := range []int{2, 3, 4, 7} {
		par := run(workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: stats diverge\n  seq: %+v\n  par: %+v", workers, seq, par)
		}
	}
}

// TestShardRunsStealsDynamically proves indices are pulled, not chunked:
// the sub-run at index 0 blocks until every other index has completed.
// Under the old static block partition with 2 workers, worker 0 owned
// indices 0..4 and the test would deadlock; with work stealing the second
// worker drains indices 1..9 while the first is parked on index 0.
func TestShardRunsStealsDynamically(t *testing.T) {
	withWorkers(t, 2)
	g := path3()
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Parallel = true
	const count = 10
	var others atomic.Int64
	allOthersDone := make(chan struct{})
	err = nw.ShardRuns(count, func(w *Network, i int) error {
		if i == 0 {
			<-allOthersDone // parks this worker; the other one must steal the rest
			return nil
		}
		if others.Add(1) == count-1 {
			close(allOthersDone)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardRunsLowestErrorIndexWins pins the deterministic error choice:
// with failures injected at two indices, the lower one is always reported,
// sequentially and under work stealing at several worker counts.
func TestShardRunsLowestErrorIndexWins(t *testing.T) {
	g := path3()
	boom := func(i int) error { return fmt.Errorf("sub-run %d failed", i) }
	for _, workers := range []int{0, 2, 4} {
		if workers > 0 {
			withWorkers(t, workers)
		}
		nw, err := NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		nw.Parallel = workers > 0
		got := nw.ShardRuns(16, func(w *Network, i int) error {
			if i == 5 || i == 11 {
				return boom(i)
			}
			return floodFor(w, i)
		})
		if got == nil || got.Error() != "sub-run 5 failed" {
			t.Fatalf("workers=%d: got error %v, want sub-run 5's", workers, got)
		}
	}
}

// TestShardRunsFleetReused pins the warm-fleet contract: two sharded
// stages on one network hand the same clones to the workers both times.
func TestShardRunsFleetReused(t *testing.T) {
	withWorkers(t, 3)
	g := path3()
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Parallel = true
	seen := func() map[*Network]bool {
		var mu sync.Mutex
		m := make(map[*Network]bool)
		if err := nw.ShardRuns(9, func(w *Network, i int) error {
			mu.Lock()
			m[w] = true
			mu.Unlock()
			return floodFor(w, i)
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	seen() // builds the fleet
	fleet := make(map[*Network]bool)
	for _, cl := range nw.fleet {
		fleet[cl] = true
	}
	if len(fleet) == 0 {
		t.Fatal("no fleet cached after a parallel stage")
	}
	for w := range seen() {
		if !fleet[w] {
			t.Fatal("second stage used a clone outside the cached fleet")
		}
	}
	if got := len(nw.fleet); got != 3 {
		t.Fatalf("fleet grew to %d clones, want 3", got)
	}
}

// TestSetBandwidthReachesFleet: a warm session reconfiguring bandwidth
// must reach the cached worker clones, or sharded stages would validate
// against a stale budget.
func TestSetBandwidthReachesFleet(t *testing.T) {
	withWorkers(t, 2)
	g := path3()
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Parallel = true
	if err := nw.ShardRuns(4, floodFor); err != nil {
		t.Fatal(err) // builds the fleet
	}
	if err := nw.SetBandwidth(3); err != nil {
		t.Fatal(err)
	}
	// Each sub-run sends 3 words on one link in one round: legal only if
	// the clone fleet observed the new budget.
	err = nw.ShardRuns(4, func(w *Network, i int) error {
		p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
			if v == 0 && round == 0 {
				for k := 0; k < 3; k++ {
					send(Message{Link: 0, Kind: 9, A: int64(k)})
				}
			}
			return true
		})
		return w.RunFor(p, 2)
	})
	if err != nil {
		t.Fatalf("3 words at bandwidth 3 rejected: %v", err)
	}
	var bwErr *ErrBandwidth
	if err := nw.SetBandwidth(0); err == nil {
		t.Error("SetBandwidth(0) accepted")
	} else if errors.As(err, &bwErr) {
		t.Error("SetBandwidth(0) returned ErrBandwidth (want plain validation error)")
	}
}
