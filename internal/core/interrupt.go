package core

import (
	"context"
	"errors"
	"fmt"
)

// InterruptError reports a run stopped by its context — canceled or past
// its deadline — together with how far the pipeline got: the stage that was
// executing (or about to execute), the charged rounds completed
// (Stats.Rounds), and the per-stage timings of every stage finished before
// the interruption (plus a partial record for the interrupted stage). It unwraps to the context's
// own sentinel, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work through it.
//
// The session that produced an InterruptError remains reusable: the engine
// returns through its normal error path, arenas are rewound by the next
// begin(), and the clone fleet stays intact — pinned by the fault-matrix
// tests.
type InterruptError struct {
	// Stage is the pipeline stage executing when the context fired.
	Stage string
	// CompletedRounds is the charged round count (Stats.Rounds) at
	// interruption. Fixed-budget schedules charge rounds they do not
	// simulate, so it can exceed the simulated rounds that Options.OnRound
	// saw.
	CompletedRounds int
	// Stages is the per-stage cost of the work finished so far, including
	// a partial StageTiming for the interrupted stage.
	Stages []StageTiming
	// Cause is the error chain ending in context.Canceled or
	// context.DeadlineExceeded.
	Cause error
}

func (e *InterruptError) Error() string {
	what := "canceled"
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		what = "deadline exceeded"
	}
	return fmt.Sprintf("core: run %s in %s after %d rounds", what, e.Stage, e.CompletedRounds)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// isContextErr reports whether err's chain ends in a context sentinel —
// the executor uses it to decide between InterruptError (interruption) and
// plain stage-error wrapping (failure).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
