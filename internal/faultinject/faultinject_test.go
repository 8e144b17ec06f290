package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestErrorRuleMatchesStageRoundSubRun(t *testing.T) {
	in := New(1, Rule{Hook: HookRound, Stage: "step3-insssp", Round: 2, SubRun: 1})

	in.SetStage("step1-csssp")
	if err := in.FireRound(1, 2); err != nil {
		t.Fatalf("fired in wrong stage: %v", err)
	}
	in.SetStage("step3-insssp")
	if err := in.FireRound(1, 1); err != nil {
		t.Fatalf("fired on wrong round: %v", err)
	}
	if err := in.FireRound(0, 2); err != nil {
		t.Fatalf("fired on wrong sub-run: %v", err)
	}
	err := in.FireRound(1, 2)
	if err == nil {
		t.Fatal("matching hook did not fire")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InjectedError, got %T: %v", err, err)
	}
	if ie.Stage != "step3-insssp" || ie.Round != 2 || ie.SubRun != 1 || ie.Hook != HookRound {
		t.Fatalf("bad tags: %+v", ie)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("does not unwrap to ErrInjected: %v", err)
	}
	if got := in.Fired(); got != 1 {
		t.Fatalf("Fired() = %d, want 1", got)
	}
}

func TestCustomErrUnwrap(t *testing.T) {
	boom := errors.New("boom")
	in := New(1, Rule{Hook: HookSubRun, SubRun: RoundAny, Err: boom})
	err := in.FireSubRun(7)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom via Unwrap, got %v", err)
	}
	if errors.Is(err, ErrInjected) {
		t.Fatalf("custom Err should replace ErrInjected: %v", err)
	}
}

func TestOnceDisarmsAndResetRearms(t *testing.T) {
	in := New(1, Rule{Hook: HookRound, Round: RoundAny, SubRun: RoundAny, Once: true})
	if err := in.FireRound(-1, 0); err == nil {
		t.Fatal("first match did not fire")
	}
	if err := in.FireRound(-1, 1); err != nil {
		t.Fatalf("Once rule fired twice: %v", err)
	}
	in.Reset()
	if in.Fired() != 0 {
		t.Fatal("Reset did not zero the fired counter")
	}
	if err := in.FireRound(-1, 0); err == nil {
		t.Fatal("Reset did not re-arm the Once rule")
	}
}

func TestSkipPassesFirstMatches(t *testing.T) {
	in := New(1, Rule{Hook: HookRound, Round: 5, SubRun: RoundAny, Skip: 2, Once: true})
	for i, round := range []int{5, 4, 5} {
		if err := in.FireRound(-1, round); err != nil {
			t.Fatalf("call %d (round %d) fired within the skipped matches: %v", i, round, err)
		}
	}
	var ie *InjectedError
	if err := in.FireRound(-1, 5); !errors.As(err, &ie) || ie.Round != 5 {
		t.Fatalf("third match: got %v, want a forced error at round 5", err)
	}
	in.Reset()
	if err := in.FireRound(-1, 5); err != nil {
		t.Fatalf("Reset did not restart the Skip count: %v", err)
	}
}

func TestPanicRule(t *testing.T) {
	in := New(1, Rule{Hook: HookSubRun, Kind: Panic, SubRun: 3})
	if err := in.FireSubRun(2); err != nil {
		t.Fatalf("fired on wrong sub-run: %v", err)
	}
	defer func() {
		v := recover()
		ip, ok := v.(*InjectedPanic)
		if !ok {
			t.Fatalf("want *InjectedPanic, got %T (%v)", v, v)
		}
		if ip.SubRun != 3 || ip.Hook != HookSubRun {
			t.Fatalf("bad panic tags: %+v", ip)
		}
	}()
	in.SetStage("step7-extend")
	in.FireSubRun(3)
	t.Fatal("unreachable: FireSubRun should have panicked")
}

func TestDelayRule(t *testing.T) {
	in := New(1, Rule{Hook: HookRound, Round: RoundAny, SubRun: RoundAny, Kind: Delay, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := in.FireRound(-1, 0); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delay too short: %v", elapsed)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestProbabilisticRuleIsSeeded(t *testing.T) {
	fires := func(seed int64) []bool {
		in := New(seed, Rule{Hook: HookRound, Round: RoundAny, SubRun: RoundAny, Prob: 0.5})
		var got []bool
		for i := 0; i < 32; i++ {
			got = append(got, in.FireRound(-1, i) != nil)
		}
		return got
	}
	a, b := fires(42), fires(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	any := false
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Fatal("p=0.5 rule never fired in 32 draws")
	}
}
