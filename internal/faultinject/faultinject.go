// Package faultinject is a deterministic fault-injection harness for the
// CONGEST execution stack. A seeded Injector holds trigger rules keyed on
// (stage, round, sub-run); the engine's round loop and the ShardRuns
// dispatcher consult an explicitly-armed injector (one nil-check when
// disarmed — see congest.FaultInjector) and a matching rule then fires a
// forced error, a panic, or a synthetic delay at exactly that point of the
// computation. Because the pipeline's stage schedule, round counts, and
// sub-run dispatch order are deterministic, a rule fires at the same place
// on every run: the fault matrix in internal/core sweeps these rules across
// every profile and exec mode and asserts bit-identical recovery.
//
// The injector is a test instrument. Production code never arms one, so the
// only cost it imposes on a real run is the disarmed nil-check.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Hook identifies the instrumentation point a rule attaches to.
type Hook int

const (
	// HookRound fires inside the engine's round loop, before the round
	// executes (the same point that observes context cancellation).
	HookRound Hook = iota
	// HookSubRun fires at the start of a ShardRuns sub-run, before the
	// sub-run body executes.
	HookSubRun
)

func (h Hook) String() string {
	if h == HookSubRun {
		return "subrun"
	}
	return "round"
}

// Kind selects what a triggered rule does.
type Kind int

const (
	// Error makes the hook return a forced error (Rule.Err, or ErrInjected
	// when unset) wrapped in *InjectedError.
	Error Kind = iota
	// Panic makes the hook panic with *InjectedPanic (or Rule.Value when
	// set), exercising the recovery paths.
	Panic
	// Delay makes the hook sleep for Rule.Delay and then continue; paired
	// with a context deadline it bounds cancellation latency in tests.
	Delay
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	}
	return "error"
}

// ErrInjected is the sentinel under every forced error whose rule did not
// supply its own Err: errors.Is(err, ErrInjected) identifies synthetic
// failures.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule is one trigger: it matches an instrumentation point by
// (stage, round, sub-run) and fires its Kind there. "" / RoundAny / -1 are
// wildcards for the three match fields respectively; note the zero-value
// Round and SubRun match index 0 exactly, not any index.
type Rule struct {
	// Hook is the instrumentation point (HookRound or HookSubRun).
	Hook Hook
	// Stage matches the executing pipeline stage name ("" = any stage).
	Stage string
	// Round matches the engine round index within the current protocol
	// execution (RoundAny = any round). Only HookRound rules see rounds.
	Round int
	// SubRun matches the ShardRuns sub-run index (-1 = any). For HookRound
	// rules this is the sub-run the executing network is serving, or -1
	// outside sharded dispatch.
	SubRun int
	// Kind is the fault to fire.
	Kind Kind
	// Err overrides the forced error for Kind Error (nil = ErrInjected).
	Err error
	// Value overrides the panic value for Kind Panic (nil = *InjectedPanic).
	Value any
	// Delay is the sleep duration for Kind Delay.
	Delay time.Duration
	// Prob, when in (0, 1), fires the rule with that probability per match,
	// drawn from the injector's seeded generator (0 or 1 = always fire).
	// Probabilistic rules are only deterministic under sequential dispatch,
	// where the draw order is fixed.
	Prob float64
	// Once disarms the rule after its first firing, so a recovered session
	// can re-run clean without rebuilding the injector.
	Once bool
	// Skip lets the rule's first Skip matches pass without firing, so a
	// rule can reach the k-th protocol run of a stage that passes the same
	// (round, sub-run) point. Matches are counted in the order they occur,
	// which is deterministic under sequential dispatch.
	Skip int
}

// RoundAny is the wildcard Round value (any round). -1 works too; the named
// constant reads better in rule tables.
const RoundAny = -1

// InjectedError is the error returned by a fired Error rule, tagged with
// where it fired. It unwraps to Rule.Err (or ErrInjected).
type InjectedError struct {
	Stage  string
	Round  int
	SubRun int
	Hook   Hook
	err    error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: forced error at %s hook (stage %q, round %d, sub-run %d): %v",
		e.Hook, e.Stage, e.Round, e.SubRun, e.err)
}

func (e *InjectedError) Unwrap() error { return e.err }

// InjectedPanic is the default panic value of a fired Panic rule.
type InjectedPanic struct {
	Stage  string
	Round  int
	SubRun int
	Hook   Hook
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s hook (stage %q, round %d, sub-run %d)",
		p.Hook, p.Stage, p.Round, p.SubRun)
}

// rule pairs a Rule with its runtime disarm state. The atomic flag makes
// Once exact even when several workers match the same wildcard rule
// concurrently: exactly one CompareAndSwap wins.
type rule struct {
	Rule
	disarmed atomic.Bool
	matched  atomic.Int64 // matches counted against Skip
}

// Injector is a set of armed rules plus the stage cursor the executor
// advances. It satisfies congest.FaultInjector. One Injector may be shared
// by a whole clone fleet: FireRound/FireSubRun are safe for concurrent use,
// and SetStage is called only between stages (the executor's goroutine-
// start/join edges order it against every worker).
type Injector struct {
	rules []*rule
	stage string
	fired atomic.Int64

	mu  sync.Mutex // guards rng (only taken for probabilistic rules)
	rng *rand.Rand
}

// New returns an Injector armed with rules. The seed drives probabilistic
// rules only; rule matching itself is exact and deterministic.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		rc := &rule{Rule: r}
		in.rules = append(in.rules, rc)
	}
	return in
}

// SetStage records the pipeline stage about to execute; subsequent hook
// firings match against it. Called by the executor between stages.
func (in *Injector) SetStage(stage string) { in.stage = stage }

// Stage returns the current stage cursor (test introspection).
func (in *Injector) Stage() string { return in.stage }

// Fired returns how many rules have fired so far (test assertions).
func (in *Injector) Fired() int64 { return in.fired.Load() }

// Reset re-arms every Once rule, zeroes the fired counter and restarts
// every Skip count, so one injector can be reused across fault-matrix
// cells.
func (in *Injector) Reset() {
	for _, r := range in.rules {
		r.disarmed.Store(false)
		r.matched.Store(0)
	}
	in.fired.Store(0)
	in.stage = ""
}

// FireRound implements congest.FaultInjector: called by the engine before
// each round with the executing network's sub-run index (-1 outside sharded
// dispatch) and the round index within the current protocol execution.
func (in *Injector) FireRound(subrun, round int) error {
	return in.fire(HookRound, subrun, round)
}

// FireSubRun implements congest.FaultInjector: called by ShardRuns at the
// start of sub-run i, before its body runs.
func (in *Injector) FireSubRun(subrun int) error {
	return in.fire(HookSubRun, subrun, RoundAny)
}

func (in *Injector) fire(h Hook, subrun, round int) error {
	for _, r := range in.rules {
		if r.Hook != h || r.disarmed.Load() {
			continue
		}
		if r.Stage != "" && r.Stage != in.stage {
			continue
		}
		if r.Round >= 0 && h == HookRound && r.Round != round {
			continue
		}
		if r.SubRun >= 0 && r.SubRun != subrun {
			continue
		}
		if r.Skip > 0 && r.matched.Add(1) <= int64(r.Skip) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !in.draw(r.Prob) {
			continue
		}
		if r.Once && !r.disarmed.CompareAndSwap(false, true) {
			continue // another worker won the disarm race
		}
		in.fired.Add(1)
		switch r.Kind {
		case Panic:
			if r.Value != nil {
				panic(r.Value)
			}
			panic(&InjectedPanic{Stage: in.stage, Round: round, SubRun: subrun, Hook: h})
		case Delay:
			time.Sleep(r.Delay)
		default:
			cause := r.Err
			if cause == nil {
				cause = ErrInjected
			}
			return &InjectedError{Stage: in.stage, Round: round, SubRun: subrun, Hook: h, err: cause}
		}
	}
	return nil
}

// draw samples the seeded generator under the mutex (probabilistic rules
// only, never on the exact-match fast path).
func (in *Injector) draw(p float64) bool {
	in.mu.Lock()
	ok := in.rng.Float64() < p
	in.mu.Unlock()
	return ok
}
