package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/faultinject"
	"congestapsp/internal/graph"
)

// fingerprint is the deterministic slice of a run compared across the fault
// matrix: the model-level cost counters and the full distance matrix.
// Host-side observations (per-stage wall clock, allocation counts) are
// excluded — they are the only nondeterministic fields of a Result.
type fingerprint struct {
	rounds   int
	messages int64
	words    int64
	qSize    int
	h        int
	dist     [][]int64
}

func fp(res *Result) fingerprint {
	return fingerprint{
		rounds:   res.Stats.Rounds,
		messages: res.Stats.Messages,
		words:    res.Stats.Words,
		qSize:    res.Stats.QSize,
		h:        res.Stats.H,
		dist:     res.Dist,
	}
}

// TestFaultMatrix sweeps injected faults — a forced sub-run error, a
// sub-run panic, a per-round delay under a context deadline (in step 1, and
// once in a charged broadcast of step 2), a forced round error inside a
// charged per-tree run of step 2, inside a host-executed Bellman-Ford
// relaxation of step 1, inside step 6's host-executed pipeline and inside
// step 8's host-executed settle wave, a
// panic in step 2 outside any sharded dispatch, a pre-canceled context,
// and a panic recovered by RetrySequential — across two columns of
// session calls, each in both exec modes: Run for all 4 profiles, and
// BlockerOnlyContext for all 4 blocker constructions (the cells aimed at
// the two stages it runs). Every cell asserts the expected typed error
// with its stage tag, and that the SAME session's next clean call equals
// an uninjected cold one — for Run bit-identical rounds, messages, words,
// |Q|, h and distances; for BlockerOnlyContext the same Q and every
// blocker.Stats field: the session-reuse-after-error contract.
func TestFaultMatrix(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	g := graph.RandomConnected(graph.GenConfig{N: 28, Seed: 11, MaxWeight: 9}, 84)
	variants := []Variant{Det43, Det32, Rand43, BroadcastStep6}

	// call is one session call under test: a Run of one profile or a
	// BlockerOnlyContext of one construction. mode is the construction its
	// step 2 runs, and step2Rounds the round at which the
	// delay-deadline-step2 cell interrupts it.
	type call struct {
		run         func(ctx context.Context, s *Session) error
		mode        blocker.Mode
		step2Rounds int
		// pipeRound and pipeSkip place the qsink-round-error-step6 rule in
		// step 6's pipeline (pipeRound 0: the profile runs no pipeline).
		pipeRound, pipeSkip int
	}
	type cell struct {
		name  string
		stage string // the stage the cell's fault lands in
		// inject arms the session and makes the call once, asserting on
		// the injected call's error.
		inject func(t *testing.T, s *Session, c call)
	}
	cells := []cell{
		{name: "forced-error", stage: "step3-insssp", inject: func(t *testing.T, s *Session, c call) {
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookSubRun, Stage: "step3-insssp", SubRun: 0, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			if err == nil {
				t.Fatal("forced error did not surface")
			}
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *faultinject.InjectedError", err, err)
			}
			if ie.Stage != "step3-insssp" || ie.SubRun != 0 {
				t.Fatalf("bad stage tag: %+v", ie)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("does not unwrap to ErrInjected: %v", err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "subrun-panic", stage: "step7-extend", inject: func(t *testing.T, s *Session, c call) {
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookSubRun, Stage: "step7-extend", SubRun: 0,
				Kind: faultinject.Panic, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			var pe *congest.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T (%v), want *congest.PanicError", err, err)
			}
			if pe.Stage != "step7-extend" || pe.SubRun != 0 || pe.Source != 0 {
				t.Fatalf("bad panic tags (want stage step7-extend, sub-run 0, source 0): %+v", pe)
			}
			if _, ok := pe.Value.(*faultinject.InjectedPanic); !ok {
				t.Fatalf("panic value is %T, want *faultinject.InjectedPanic", pe.Value)
			}
		}},
		{name: "delay-deadline", stage: "step1-csssp", inject: func(t *testing.T, s *Session, c call) {
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step1-csssp",
				Round: faultinject.RoundAny, SubRun: -1,
				Kind: faultinject.Delay, Delay: 30 * time.Millisecond,
			})
			s.SetFaultInjector(inj)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := c.run(ctx, s)
			elapsed := time.Since(start)
			var ie *InterruptError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *InterruptError", err, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("does not match context.DeadlineExceeded: %v", err)
			}
			if ie.Stage != "step1-csssp" {
				t.Fatalf("interrupted stage = %q, want step1-csssp", ie.Stage)
			}
			// The cancellation-latency pin: the deadline fires during the
			// first 30ms round delay, and every engine must notice at its
			// next round check — within 2 rounds of ctx.Done() per worker.
			// CompletedRounds sums the per-clone partial rounds when stage 1
			// was source-sharded, so the bound scales with the worker count
			// (the workers burn their rounds concurrently, not serially).
			if limit := 2 * runtime.GOMAXPROCS(0); ie.CompletedRounds > limit {
				t.Fatalf("run continued %d rounds past a 10ms deadline with 30ms round delays (limit %d)", ie.CompletedRounds, limit)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v, want well under 2s", elapsed)
			}
		}},
		{name: "delay-deadline-step2", stage: "step2-blocker", inject: func(t *testing.T, s *Session, c call) {
			// Round 20 of step 2 is first reached in the downward flood of
			// its first all-to-all broadcast, whose rounds are charged
			// rather than simulated. The deadline passes during the one
			// delay there, and the run must stop at the next round.
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step2-blocker",
				Round: 20, SubRun: -1, Once: true,
				Kind: faultinject.Delay, Delay: 500 * time.Millisecond,
			})
			s.SetFaultInjector(inj)
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			defer cancel()
			err := c.run(ctx, s)
			var ie *InterruptError
			if !errors.As(err, &ie) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %T (%v), want *InterruptError past its deadline", err, err)
			}
			if want := c.step2Rounds; ie.Stage != "step2-blocker" || ie.CompletedRounds != want {
				t.Fatalf("interrupted in %s after %d rounds, want step2-blocker after %d", ie.Stage, ie.CompletedRounds, want)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "tree-run-error-step2", stage: "step2-blocker", inject: func(t *testing.T, s *Session, c call) {
			// Round 2 of sub-run 1 in step 2 is first reached in the
			// Ancestors run of tree 1, which is charged from the tree
			// rather than simulated. The set-cover blockers must fail
			// there with the rule's tags. The greedy and random-sample
			// blockers (Det32's and Rand43's) run their per-tree protocols
			// outside ShardRuns, so no sub-run matches and the call
			// succeeds.
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step2-blocker",
				Round: 2, SubRun: 1, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			if c.mode == blocker.Greedy || c.mode == blocker.RandomSample {
				if err != nil || inj.Fired() != 0 {
					t.Fatalf("got %v with the rule fired %d times, want a clean run", err, inj.Fired())
				}
				return
			}
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *faultinject.InjectedError", err, err)
			}
			if ie.Stage != "step2-blocker" || ie.SubRun != 1 || ie.Round != 2 {
				t.Fatalf("bad tags (want stage step2-blocker, sub-run 1, round 2): %+v", ie)
			}
			if !strings.Contains(err.Error(), "ancestors tree 1") {
				t.Fatalf("fired outside the charged Ancestors run of tree 1: %v", err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "bford-round-error-step1", stage: "step1-csssp", inject: func(t *testing.T, s *Session, c call) {
			// Round 2 of sub-run 1 in step 1 is first reached in the
			// relaxation of source 1's out-SSSP, which runs on the host and
			// is charged round by round. The run must fail there with the
			// rule's tags, wrapped by bford.
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step1-csssp",
				Round: 2, SubRun: 1, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *faultinject.InjectedError", err, err)
			}
			if ie.Stage != "step1-csssp" || ie.SubRun != 1 || ie.Round != 2 {
				t.Fatalf("bad tags (want stage step1-csssp, sub-run 1, round 2): %+v", ie)
			}
			if !strings.Contains(err.Error(), "bford: out-SSSP: ") {
				t.Fatalf("fired outside the Bellman-Ford relaxation: %v", err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "lastedge-round-error-step8", stage: "step8-lastedge", inject: func(t *testing.T, s *Session, c call) {
			// Step 8's settle wave runs on the host and is charged round
			// by round, outside any sharded dispatch. Round 30 is a drain
			// round on this n=28 graph: the columns went out in rounds
			// 0-27. The run must fail there with the rule's tags.
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step8-lastedge",
				Round: 30, SubRun: -1, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *faultinject.InjectedError", err, err)
			}
			if ie.Stage != "step8-lastedge" || ie.SubRun != -1 || ie.Round != 30 {
				t.Fatalf("bad tags (want stage step8-lastedge, sub-run -1, round 30): %+v", ie)
			}
			if !strings.HasPrefix(err.Error(), "core: step8-lastedge: ") {
				t.Fatalf("not wrapped by the step-8 stage: %v", err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "qsink-round-error-step6", stage: "step6-qsink", inject: func(t *testing.T, s *Session, c call) {
			// Step 6's Case 2 pipeline runs on the host and is charged
			// round by round, outside any sharded dispatch, as the stage's
			// last run. One earlier run of the stage outside sharded
			// dispatch also reaches the rule's round (the all-to-all of
			// the bottleneck values for Det43, Case 1's all-to-all for
			// Rand43), so the rule skips that match and fires in the
			// pipeline. Det32 and BroadcastStep6 broadcast their step 6
			// and run no pipeline: no rule is armed for them.
			if c.pipeRound == 0 {
				return
			}
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step6-qsink",
				Round: c.pipeRound, SubRun: -1, Skip: c.pipeSkip, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *faultinject.InjectedError", err, err)
			}
			if ie.Stage != "step6-qsink" || ie.SubRun != -1 || ie.Round != c.pipeRound {
				t.Fatalf("bad tags (want stage step6-qsink, sub-run -1, round %d): %+v", c.pipeRound, ie)
			}
			if !strings.HasPrefix(err.Error(), "core: step6-qsink: qsink: round-robin pipeline: ") {
				t.Fatalf("fired outside step 6's round-robin pipeline: %v", err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "step2-panic-round0", stage: "step2-blocker", inject: func(t *testing.T, s *Session, c call) {
			// Round 0 of step 2 is first reached outside any sharded
			// dispatch, so the panic escapes the stage body and the
			// executor recovers it, tagged with the stage and sub-run -1.
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookRound, Stage: "step2-blocker",
				Round: 0, SubRun: -1, Kind: faultinject.Panic, Once: true,
			})
			s.SetFaultInjector(inj)
			err := c.run(context.Background(), s)
			var pe *congest.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T (%v), want *congest.PanicError", err, err)
			}
			if pe.Stage != "step2-blocker" || pe.SubRun != -1 {
				t.Fatalf("bad panic tags (want stage step2-blocker, sub-run -1): %+v", pe)
			}
			if _, ok := pe.Value.(*faultinject.InjectedPanic); !ok {
				t.Fatalf("panic value is %T, want *faultinject.InjectedPanic", pe.Value)
			}
			if inj.Fired() != 1 {
				t.Fatalf("rule fired %d times, want 1", inj.Fired())
			}
		}},
		{name: "pre-canceled", stage: "step1-csssp", inject: func(t *testing.T, s *Session, c call) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := c.run(ctx, s)
			var ie *InterruptError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *InterruptError", err, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("does not match context.Canceled: %v", err)
			}
			if ie.Stage != "step1-csssp" || ie.CompletedRounds != 0 {
				t.Fatalf("pre-canceled call reports stage %q after %d rounds, want step1-csssp after 0", ie.Stage, ie.CompletedRounds)
			}
		}},
	}

	for _, v := range variants {
		for _, parallel := range []bool{false, true} {
			opt := Options{Variant: v, Parallel: parallel, Seed: 7}
			cold, err := runCold(g, opt)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold run: %v", v, parallel, err)
			}
			want := fp(cold)
			run := call{
				run: func(ctx context.Context, s *Session) error {
					_, err := s.RunContext(ctx, opt)
					return err
				},
				mode:        runConstruction[v],
				step2Rounds: step2DelayRounds[v],
				pipeRound:   step6PipelineRule[v][0],
				pipeSkip:    step6PipelineRule[v][1],
			}
			for _, c := range cells {
				t.Run(c.name+"/"+v.String()+"/parallel="+boolName(parallel), func(t *testing.T) {
					s, err := NewSession(g)
					if err != nil {
						t.Fatal(err)
					}
					c.inject(t, s, run)
					// Disarm and re-run on the SAME session: the recovery
					// contract is that it comes back bit-identical to cold.
					s.SetFaultInjector(nil)
					res, err := s.Run(opt)
					if err != nil {
						t.Fatalf("clean run after injected fault: %v", err)
					}
					if got := fp(res); !reflect.DeepEqual(got, want) {
						t.Fatalf("post-fault run diverges from cold run\n  got:  %+v\n  want: %+v",
							fingerprint{got.rounds, got.messages, got.words, got.qSize, got.h, nil},
							fingerprint{want.rounds, want.messages, want.words, want.qSize, want.h, nil})
					}
				})
			}
			// Graceful-degradation cell: RetrySequential turns the same
			// sub-run panic into a successful run whose results and stats
			// are bit-identical to the undisturbed cold run, first try.
			t.Run("retry-sequential/"+v.String()+"/parallel="+boolName(parallel), func(t *testing.T) {
				s, err := NewSession(g)
				if err != nil {
					t.Fatal(err)
				}
				inj := faultinject.New(1, faultinject.Rule{
					Hook: faultinject.HookSubRun, Stage: "step7-extend", SubRun: 0,
					Kind: faultinject.Panic, Once: true,
				})
				s.SetFaultInjector(inj)
				ropt := opt
				ropt.RetrySequential = true
				res, err := s.Run(ropt)
				if err != nil {
					t.Fatalf("RetrySequential did not recover: %v", err)
				}
				if inj.Fired() != 1 {
					t.Fatalf("rule fired %d times, want 1", inj.Fired())
				}
				if got := fp(res); !reflect.DeepEqual(got, want) {
					t.Fatal("recovered run diverges from cold run")
				}
			})
		}
	}

	// The blocker-only column: BlockerOnlyContext runs stages 1 and 2 on
	// the same executor, so the cells aimed at those stages apply to it.
	for _, mode := range []blocker.Mode{blocker.Deterministic, blocker.Randomized, blocker.Greedy, blocker.RandomSample} {
		for _, parallel := range []bool{false, true} {
			bo := BlockerOptions{Mode: mode, Seed: 7, Parallel: parallel}
			coldS, err := NewSession(g)
			if err != nil {
				t.Fatal(err)
			}
			coldQ, coldStats, err := coldS.BlockerOnlyContext(context.Background(), bo)
			if err != nil {
				t.Fatalf("%v parallel=%v: cold blocker set: %v", mode, parallel, err)
			}
			only := call{
				run: func(ctx context.Context, s *Session) error {
					_, _, err := s.BlockerOnlyContext(ctx, bo)
					return err
				},
				mode:        mode,
				step2Rounds: blockerStep2DelayRounds[mode],
			}
			for _, c := range cells {
				if c.stage != "step1-csssp" && c.stage != "step2-blocker" {
					continue
				}
				t.Run("blocker-only/"+c.name+"/"+mode.String()+"/parallel="+boolName(parallel), func(t *testing.T) {
					s, err := NewSession(g)
					if err != nil {
						t.Fatal(err)
					}
					c.inject(t, s, only)
					s.SetFaultInjector(nil)
					q, stats, err := s.BlockerOnlyContext(context.Background(), bo)
					if err != nil {
						t.Fatalf("clean blocker set after injected fault: %v", err)
					}
					if !reflect.DeepEqual(q, coldQ) || stats != coldStats {
						t.Fatalf("post-fault blocker set diverges from cold\n  got:  %v %+v\n  want: %v %+v", q, stats, coldQ, coldStats)
					}
				})
			}
		}
	}
}

// step2DelayRounds is, per profile, the round count at which the
// delay-deadline-step2 cell interrupts the fault-matrix graph: the rounds
// before step 2's first all-to-all, plus its gather and 21 flood rounds.
var step2DelayRounds = map[Variant]int{Det43: 847, Det32: 986, Rand43: 566, BroadcastStep6: 847}

// step6PipelineRule is, per profile that runs step 6's pipeline, the
// round of the qsink-round-error-step6 rule and the matches it skips. On
// the fault-matrix graph the Det43 pipeline simulates 22 rounds and the
// Rand43 one 82.
var step6PipelineRule = map[Variant][2]int{Det43: {15, 1}, Rand43: {60, 1}}

// runConstruction is the blocker construction each profile's step 2 runs
// (Det43 and BroadcastStep6: the zero Mode, Algorithm 2').
var runConstruction = map[Variant]blocker.Mode{Det32: blocker.Greedy, Rand43: blocker.RandomSample}

// blockerStep2DelayRounds is step2DelayRounds for the blocker-only column,
// per construction at the default h = ceil(28^(1/3)) = 4. Deterministic
// matches Det43 and RandomSample matches Rand43, which share that h;
// Greedy runs at a smaller h than Det32's 6.
var blockerStep2DelayRounds = map[blocker.Mode]int{
	blocker.Deterministic: 847, blocker.Randomized: 847, blocker.Greedy: 707, blocker.RandomSample: 566,
}

func boolName(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TestSessionChecksumGuard pins the out-of-band mutation guard: any
// graph-API mutation not routed through ApplyUpdates — including a pure
// weight change, which keeps the edge count constant — is caught by the
// O(1) version compare at the next run, and the rejection is permanent
// until the session is re-synchronized through ApplyUpdates. (Raw writes
// through the Edges() slice bypass the version counter and are caught only
// under -tags matcheck; see TestSessionDigestGuardMatcheck.)
func TestSessionChecksumGuard(t *testing.T) {
	g := graph.New(3, false)
	for _, e := range [][3]int64{{0, 1, 2}, {1, 2, 3}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeWeight(0, 9); err != nil { // same edge count, different weight
		t.Fatal(err)
	}
	if _, err := s.Run(Options{}); err == nil {
		t.Fatal("out-of-band weight mutation not caught by the session guard")
	}
	// Undoing the value does not un-mutate the graph: the version counter is
	// monotonic, so the session stays rejected until told about the change.
	if err := g.SetEdgeWeight(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Options{}); err == nil {
		t.Fatal("session accepted a graph mutated behind its back")
	}
	// The way out is a fresh session (ApplyUpdates also refuses a graph
	// mutated behind the session's back — it cannot know what changed).
	s2, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(Options{}); err != nil {
		t.Fatalf("fresh session on the mutated graph rejected: %v", err)
	}
}
