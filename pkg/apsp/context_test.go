package apsp

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// cancelAfterRounds returns Options whose OnRound hook cancels the run
// after k simulated rounds — a way to cancel deterministically mid-stage
// from the public surface, with no fault injector.
func cancelAfterRounds(opt Options, k int, cancel context.CancelFunc) Options {
	var fired atomic.Bool
	opt.OnRound = func(round, delivered int) {
		if round >= k && !fired.Swap(true) {
			cancel()
		}
	}
	return opt
}

// TestRunContextCancelMidStageRunnerReusable is the public session-reuse
// contract under cancellation, for all 4 profiles in both exec modes: a run
// canceled mid-stage returns an *InterruptError matching both ErrCanceled
// and context.Canceled with the interrupted stage and progress, and the
// SAME Runner's next clean run is bit-identical to a cold run.
func TestRunContextCancelMidStageRunnerReusable(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	algos := []Algorithm{
		Deterministic43, Deterministic32, Randomized43, BroadcastStep6,
	}
	for _, algo := range algos {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: algo, Parallel: parallel, Seed: 5}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", algo, parallel, err)
			}
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			_, err = r.RunContext(ctx, cancelAfterRounds(opt, 3, cancel))
			cancel()
			if err == nil {
				t.Fatalf("%v parallel=%v: canceled run succeeded", algo, parallel)
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%v parallel=%v: error matches neither sentinel: %v", algo, parallel, err)
			}
			var ie *InterruptError
			if !errors.As(err, &ie) {
				t.Fatalf("%v parallel=%v: got %T, want *InterruptError", algo, parallel, err)
			}
			if ie.Stage == "" {
				t.Fatalf("%v parallel=%v: InterruptError without a stage tag: %+v", algo, parallel, ie)
			}
			if errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("%v parallel=%v: canceled run matches ErrDeadlineExceeded", algo, parallel)
			}
			// The same Runner, clean: bit-identical to cold on distances,
			// last hops, and every deterministic stat.
			warm, err := r.Run(opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: clean run after cancel: %v", algo, parallel, err)
			}
			if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) {
				t.Fatalf("%v parallel=%v: post-cancel results diverge from cold run", algo, parallel)
			}
			if got, want := stripHostCost(warm.Stats), stripHostCost(cold.Stats); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v parallel=%v: post-cancel stats diverge\n  got:  %+v\n  want: %+v", algo, parallel, got, want)
			}
		}
	}
}

// TestRunContextCancelInChargedBroadcast cancels from OnRound inside the
// downward flood of step 2's first all-to-all broadcast, whose rounds are
// charged rather than simulated. The run must stop at the next round, as a
// simulated protocol would: the error names step2-blocker and the
// completed rounds equal the recorded values. The same Runner's next clean
// run must be bit-identical to a cold run. An OnRound hook keeps sharded
// sub-runs serial, so both exec modes cancel at the same round.
func TestRunContextCancelInChargedBroadcast(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	cases := []struct {
		algo      Algorithm
		parallel  bool
		at        int // OnRound sequence number that cancels
		completed int
	}{
		{Deterministic43, false, 720, 831},
		{Deterministic43, true, 720, 831},
		{Deterministic32, false, 664, 971},
		{Deterministic32, true, 664, 971},
		{Randomized43, false, 467, 550},
		{Randomized43, true, 467, 550},
		{BroadcastStep6, false, 720, 831},
		{BroadcastStep6, true, 720, 831},
	}
	for _, tc := range cases {
		opt := Options{Algorithm: tc.algo, Parallel: tc.parallel, Seed: 5}
		cold, err := Run(g, opt)
		if err != nil {
			t.Fatalf("%v parallel=%v: cold run: %v", tc.algo, tc.parallel, err)
		}
		r, err := NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err = r.RunContext(ctx, cancelAfterRounds(opt, tc.at, cancel))
		cancel()
		var ie *InterruptError
		if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v parallel=%v: got %v, want a canceled *InterruptError", tc.algo, tc.parallel, err)
		}
		if ie.Stage != "step2-blocker" || ie.CompletedRounds != tc.completed {
			t.Errorf("%v parallel=%v: interrupted in %s after %d rounds, want step2-blocker after %d",
				tc.algo, tc.parallel, ie.Stage, ie.CompletedRounds, tc.completed)
		}
		warm, err := r.Run(opt)
		if err != nil {
			t.Fatalf("%v parallel=%v: clean run after cancel: %v", tc.algo, tc.parallel, err)
		}
		if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(stripHostCost(warm.Stats), stripHostCost(cold.Stats)) {
			t.Fatalf("%v parallel=%v: post-cancel run diverges from cold run", tc.algo, tc.parallel)
		}
	}
}

// TestRunContextCancelInChargedTreeRun cancels from OnRound inside the
// first per-tree protocol of step 2 that follows the score or sample
// broadcasts: the score upcast of tree 0 for Deterministic43,
// BroadcastStep6 and Deterministic32 (whose greedy blocker upcasts too),
// and, since the random-sample blocker has no score upcast, the Compute-Pi
// downcast of tree 0 for Randomized43. The OnRound hook fires after the
// tree run's second round, so the run stops at the top of its third, as a
// simulated run would: the error names step2-blocker and the completed
// rounds equal those the simulated tree protocols gave. An OnRound hook
// keeps sharded sub-runs serial, so both exec modes cancel at the same
// round. The same Runner's next clean run must be bit-identical to a cold
// run.
func TestRunContextCancelInChargedTreeRun(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	cases := []struct {
		algo      Algorithm
		at        int // OnRound sequence number that cancels
		completed int
	}{
		{Deterministic43, 568, 679},
		{Deterministic32, 456, 763},
		{Randomized43, 491, 574},
		{BroadcastStep6, 568, 679},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: tc.algo, Parallel: parallel, Seed: 5}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", tc.algo, parallel, err)
			}
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			_, err = r.RunContext(ctx, cancelAfterRounds(opt, tc.at, cancel))
			cancel()
			var ie *InterruptError
			if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
				t.Fatalf("%v parallel=%v: got %v, want a canceled *InterruptError", tc.algo, parallel, err)
			}
			if ie.Stage != "step2-blocker" || ie.CompletedRounds != tc.completed {
				t.Errorf("%v parallel=%v: interrupted in %s after %d rounds, want step2-blocker after %d",
					tc.algo, parallel, ie.Stage, ie.CompletedRounds, tc.completed)
			}
			warm, err := r.Run(opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: clean run after cancel: %v", tc.algo, parallel, err)
			}
			if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) ||
				!reflect.DeepEqual(stripHostCost(warm.Stats), stripHostCost(cold.Stats)) {
				t.Fatalf("%v parallel=%v: post-cancel run diverges from cold run", tc.algo, parallel)
			}
		}
	}
}

// TestRunContextCancelInChargedBellmanFord cancels from OnRound inside the
// Bellman-Ford runs that are executed on the host and charged round by
// round: after round 1 of step 1's first relaxation, after round 1 of its
// confirmation wave (seq 9: that relaxation simulates 8 rounds), and after
// the second simulated round of step 7. The run must stop at the next
// round, as the simulated protocols did: the error names the stage and the
// completed rounds equal those the simulated runs gave. An OnRound hook
// keeps sharded sub-runs serial, so both exec modes cancel at the same
// round. The same Runner's next clean run must be bit-identical to a cold
// run.
func TestRunContextCancelInChargedBellmanFord(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	type cut struct {
		stage     string
		at        int // OnRound sequence number that cancels
		completed int
	}
	cases := []struct {
		algo Algorithm
		cuts []cut
	}{
		{Deterministic43, []cut{{"step1-csssp", 1, 2}, {"step1-csssp", 9, 11}, {"step7-extend", 4621, 5663}}},
		{Deterministic32, []cut{{"step1-csssp", 1, 2}, {"step1-csssp", 9, 15}, {"step7-extend", 890, 1282}}},
		{Randomized43, []cut{{"step1-csssp", 1, 2}, {"step1-csssp", 9, 11}, {"step7-extend", 3005, 4680}}},
		{BroadcastStep6, []cut{{"step1-csssp", 1, 2}, {"step1-csssp", 9, 11}, {"step7-extend", 4531, 5372}}},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: tc.algo, Parallel: parallel, Seed: 5}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", tc.algo, parallel, err)
			}
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.cuts {
				ctx, cancel := context.WithCancel(context.Background())
				_, err = r.RunContext(ctx, cancelAfterRounds(opt, c.at, cancel))
				cancel()
				var ie *InterruptError
				if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
					t.Fatalf("%v parallel=%v: got %v, want a canceled *InterruptError", tc.algo, parallel, err)
				}
				if ie.Stage != c.stage || ie.CompletedRounds != c.completed {
					t.Errorf("%v parallel=%v: canceled after round %d: interrupted in %s after %d rounds, want %s after %d",
						tc.algo, parallel, c.at, ie.Stage, ie.CompletedRounds, c.stage, c.completed)
				}
				warm, err := r.Run(opt)
				if err != nil {
					t.Fatalf("%v parallel=%v: clean run after cancel: %v", tc.algo, parallel, err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) ||
					!reflect.DeepEqual(stripHostCost(warm.Stats), stripHostCost(cold.Stats)) {
					t.Fatalf("%v parallel=%v: run after a cancel at round %d diverges from cold run", tc.algo, parallel, c.at)
				}
			}
		}
	}
}

// TestRunContextCancelInChargedLastEdge cancels from OnRound inside step
// 8's settle wave, which runs on the host and is charged round by round.
// On this n=28 graph step 8 simulates 58 rounds: columns go out in rounds
// 0-27 and the settle notices drain after. One cut fires after column
// round 3 and one after drain round 40. The run must stop at the next
// round, as the simulated protocol did: the error names step8-lastedge and
// the completed rounds equal those the simulated run gave. An OnRound hook
// keeps sharded sub-runs serial, so both exec modes cancel at the same
// round. The same Runner's next clean run must be bit-identical to a cold
// run.
func TestRunContextCancelInChargedLastEdge(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	type cut struct {
		at        int // OnRound sequence number that cancels
		completed int
	}
	cases := []struct {
		algo Algorithm
		cuts []cut // a column round, then a drain round
	}{
		{Deterministic43, []cut{{4680, 5806}, {4717, 5843}}},
		{Deterministic32, []cut{{949, 1481}, {986, 1518}}},
		{Randomized43, []cut{{3064, 4823}, {3101, 4860}}},
		{BroadcastStep6, []cut{{4590, 5515}, {4627, 5552}}},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: tc.algo, Parallel: parallel, Seed: 5}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", tc.algo, parallel, err)
			}
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.cuts {
				ctx, cancel := context.WithCancel(context.Background())
				_, err = r.RunContext(ctx, cancelAfterRounds(opt, c.at, cancel))
				cancel()
				var ie *InterruptError
				if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
					t.Fatalf("%v parallel=%v: got %v, want a canceled *InterruptError", tc.algo, parallel, err)
				}
				if ie.Stage != "step8-lastedge" || ie.CompletedRounds != c.completed {
					t.Errorf("%v parallel=%v: canceled after round %d: interrupted in %s after %d rounds, want step8-lastedge after %d",
						tc.algo, parallel, c.at, ie.Stage, ie.CompletedRounds, c.completed)
				}
				warm, err := r.Run(opt)
				if err != nil {
					t.Fatalf("%v parallel=%v: clean run after cancel: %v", tc.algo, parallel, err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) ||
					!reflect.DeepEqual(stripHostCost(warm.Stats), stripHostCost(cold.Stats)) {
					t.Fatalf("%v parallel=%v: run after a cancel at round %d diverges from cold run", tc.algo, parallel, c.at)
				}
			}
		}
	}
}

// TestRunContextCancelInChargedQSink cancels from OnRound inside step 6's
// Case 2 pipeline, which runs on the host and is charged round by round:
// after the pipeline's round 2 and in its middle. On this n=28 graph the
// Deterministic43 pipeline simulates 52 rounds from sequence number 4569
// and the Randomized43 one 100 rounds from 2905. Deterministic32
// broadcasts its step 6 and runs no pipeline, so its cuts land in the
// flood of that charged all-to-all, 87 rounds from 803. The run must stop
// at the next round, as the simulated protocols did: the error names
// step6-qsink and the completed rounds equal those the simulated runs
// gave. An OnRound hook keeps sharded sub-runs serial, so both exec modes
// cancel at the same round. The same Runner's next clean run must be
// bit-identical to a cold run.
func TestRunContextCancelInChargedQSink(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 28, Seed: 9, MaxWeight: 20}, 4*28)
	type cut struct {
		at        int // OnRound sequence number that cancels
		completed int
	}
	cases := []struct {
		algo Algorithm
		cuts []cut // after round 2, then mid-pipeline
	}{
		{Deterministic43, []cut{{4571, 5613}, {4595, 5637}}},
		{Deterministic32, []cut{{805, 1197}, {846, 1238}}},
		{Randomized43, []cut{{2907, 4582}, {2955, 4630}}},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			opt := Options{Algorithm: tc.algo, Parallel: parallel, Seed: 5}
			cold, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", tc.algo, parallel, err)
			}
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.cuts {
				ctx, cancel := context.WithCancel(context.Background())
				_, err = r.RunContext(ctx, cancelAfterRounds(opt, c.at, cancel))
				cancel()
				var ie *InterruptError
				if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
					t.Fatalf("%v parallel=%v: got %v, want a canceled *InterruptError", tc.algo, parallel, err)
				}
				if ie.Stage != "step6-qsink" || ie.CompletedRounds != c.completed {
					t.Errorf("%v parallel=%v: canceled after round %d: interrupted in %s after %d rounds, want step6-qsink after %d",
						tc.algo, parallel, c.at, ie.Stage, ie.CompletedRounds, c.completed)
				}
				warm, err := r.Run(opt)
				if err != nil {
					t.Fatalf("%v parallel=%v: clean run after cancel: %v", tc.algo, parallel, err)
				}
				if !reflect.DeepEqual(warm.Dist, cold.Dist) || !reflect.DeepEqual(warm.LastHop, cold.LastHop) ||
					!reflect.DeepEqual(stripHostCost(warm.Stats), stripHostCost(cold.Stats)) {
					t.Fatalf("%v parallel=%v: run after a cancel at round %d diverges from cold run", tc.algo, parallel, c.at)
				}
			}
		}
	}
}

// TestRunContextDeadline pins the deadline path end to end: an
// already-expired deadline fails with ErrDeadlineExceeded before any round
// executes, and the Runner stays usable.
func TestRunContextDeadline(t *testing.T) {
	g := RandomGraph(GenOptions{N: 16, Seed: 2, MaxWeight: 9}, 48)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = r.RunContext(ctx, Options{})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v", err)
	}
	var ie *InterruptError
	if !errors.As(err, &ie) || ie.CompletedRounds != 0 {
		t.Fatalf("want *InterruptError with 0 completed rounds, got %v", err)
	}
	if _, err := r.Run(Options{}); err != nil {
		t.Fatalf("Runner unusable after deadline: %v", err)
	}
}

// TestBlockerSetContextCanceled: the blocker-only path observes its context
// at the executor's first stage boundary, surfacing the InterruptError a
// Run returns, and the Runner stays usable.
func TestBlockerSetContextCanceled(t *testing.T) {
	g := RandomGraph(GenOptions{N: 24, Seed: 4, MaxWeight: 9}, 72)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = r.BlockerSetContext(ctx, BlockerOptions{})
	var ie *InterruptError
	if !errors.Is(err, ErrCanceled) || !errors.As(err, &ie) || ie.Stage != "step1-csssp" || ie.CompletedRounds != 0 {
		t.Fatalf("canceled BlockerSetContext returned %v, want an interrupt in step1-csssp after 0 rounds", err)
	}
	q, _, err := r.BlockerSet(BlockerOptions{})
	if err != nil || len(q) == 0 {
		t.Fatalf("Runner unusable after canceled blocker construction: q=%v err=%v", q, err)
	}
}

// TestRetrySequentialPublicOption: the public opt-in reaches the dispatcher
// (a smoke test — the recovery semantics are pinned in internal/congest and
// the fault matrix; here we only prove the option is plumbed and harmless
// on a healthy run).
func TestRetrySequentialPublicOption(t *testing.T) {
	forceWorkers(t)
	g := RandomGraph(GenOptions{N: 20, Seed: 6, MaxWeight: 9}, 60)
	plain, err := Run(g, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	retry, err := Run(g, Options{Parallel: true, RetrySequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Dist, retry.Dist) {
		t.Fatal("RetrySequential changed a healthy run's results")
	}
	if got, want := stripHostCost(retry.Stats), stripHostCost(plain.Stats); !reflect.DeepEqual(got, want) {
		t.Fatalf("RetrySequential changed a healthy run's stats\n  got:  %+v\n  want: %+v", got, want)
	}
}
