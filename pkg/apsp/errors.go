package apsp

import (
	"context"
	"errors"
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/core"
)

// ErrCanceled is the sentinel under every error returned by a run whose
// context was canceled: errors.Is(err, apsp.ErrCanceled) identifies it. The
// concrete error is an *InterruptError carrying the interrupted stage and
// the progress made.
var ErrCanceled = errors.New("apsp: run canceled")

// ErrDeadlineExceeded is the sentinel under every error returned by a run
// whose context deadline passed; the concrete error is an *InterruptError.
var ErrDeadlineExceeded = errors.New("apsp: run deadline exceeded")

// InterruptError reports a run stopped by its context, with how far it got:
// the stage and the charged rounds (Stats.Rounds) completed.
// It matches both the apsp sentinel for its cause (ErrCanceled or
// ErrDeadlineExceeded) and the underlying context sentinel
// (context.Canceled or context.DeadlineExceeded), so callers can branch
// with errors.Is at either level:
//
//	res, err := r.RunContext(ctx, opt)
//	var ie *apsp.InterruptError
//	switch {
//	case errors.Is(err, apsp.ErrDeadlineExceeded) && errors.As(err, &ie):
//	    log.Printf("budget blown in %s after %d rounds", ie.Stage, ie.CompletedRounds)
//	case errors.Is(err, apsp.ErrCanceled):
//	    return // caller went away
//	}
//
// The Runner that returned an InterruptError remains reusable, and its next
// run is bit-identical to a cold one.
type InterruptError struct {
	// Stage is the pipeline stage executing (or about to execute) when the
	// context fired, e.g. "step6-qsink".
	Stage string
	// CompletedRounds is the charged CONGEST round count (Stats.Rounds) at
	// interruption. Fixed-budget schedules charge rounds they do not
	// simulate, so it can exceed the simulated rounds that Options.OnRound
	// saw.
	CompletedRounds int
	// Stages is the per-stage cost of the work finished before the
	// interruption, including a partial record for the interrupted stage.
	Stages []StageTiming
	// Cause is the original error chain (ending in a context sentinel).
	Cause error
}

func (e *InterruptError) Error() string {
	what := "canceled"
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		what = "deadline exceeded"
	}
	return fmt.Sprintf("apsp: run %s in %s after %d rounds", what, e.Stage, e.CompletedRounds)
}

// Unwrap exposes both sentinel levels to errors.Is.
func (e *InterruptError) Unwrap() []error {
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		return []error{ErrDeadlineExceeded, e.Cause}
	}
	return []error{ErrCanceled, e.Cause}
}

// PanicError reports a panic recovered inside the execution stack — a
// ShardRuns worker or a pipeline stage, in a Run or a BlockerSet call —
// converted to an error instead of crashing the process, and tagged with
// where it happened. The Runner remains reusable afterwards; with
// Options.RetrySequential set, runs recover from worker panics
// automatically and no PanicError surfaces unless the sequential retry
// fails too.
type PanicError struct {
	// Stage is the pipeline stage that was executing.
	Stage string
	// SubRun is the failing sub-run index within its sharded dispatch (-1
	// when the panic escaped a stage outside any dispatch).
	SubRun int
	// Source is the source vertex the sub-run was computing (-1 if unknown).
	Source int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	tag := ""
	if e.Stage != "" {
		tag = " in " + e.Stage
	}
	if e.SubRun >= 0 {
		tag += fmt.Sprintf(" (sub-run %d", e.SubRun)
		if e.Source >= 0 {
			tag += fmt.Sprintf(", source %d", e.Source)
		}
		tag += ")"
	}
	return fmt.Sprintf("apsp: recovered panic%s: %v", tag, e.Value)
}

// UpdateError reports which update of an ApplyUpdates batch failed, by its
// zero-based index: updates before Index were applied (the Runner stays
// consistent with that prefix), Index failed with Err, and everything
// after was never attempted. Batching layers that coalesce several logical
// batches into one call (the serve batcher) use Index to split the blame
// across their callers.
type UpdateError struct {
	Index int
	Err   error
}

func (e *UpdateError) Error() string { return fmt.Sprintf("apsp: update %d: %v", e.Index, e.Err) }
func (e *UpdateError) Unwrap() error { return e.Err }

// translateErr maps internal error shapes onto the public taxonomy:
// core.InterruptError becomes *InterruptError (with both sentinels),
// core.UpdateError becomes *UpdateError, congest.PanicError becomes
// *PanicError, and everything else passes through unchanged. Every
// session call runs the staged executor, so a context error always
// arrives as a core.InterruptError.
func translateErr(err error) error {
	if err == nil {
		return nil
	}
	var ie *core.InterruptError
	if errors.As(err, &ie) {
		return &InterruptError{
			Stage:           ie.Stage,
			CompletedRounds: ie.CompletedRounds,
			Stages:          ie.Stages,
			Cause:           ie.Cause,
		}
	}
	var ue *core.UpdateError
	if errors.As(err, &ue) {
		return &UpdateError{Index: ue.Index, Err: ue.Err}
	}
	var pe *congest.PanicError
	if errors.As(err, &pe) {
		return &PanicError{
			Stage:  pe.Stage,
			SubRun: pe.SubRun,
			Source: pe.Source,
			Value:  pe.Value,
			Stack:  pe.Stack,
		}
	}
	return err
}
