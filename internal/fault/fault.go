// Package fault defines the pipeline's failure vocabulary: every stage or
// worker failure — including a recovered panic — is represented as a
// *StageError that names the stage, the work item (when item-scoped), the
// underlying cause, and, for panics, the goroutine stack at the point of the
// blow-up. The generator never lets a panic escape a worker or a stage: it
// is converted here and propagated as an ordinary wrapped error, so a single
// pathological unit cannot crash a process serving other traffic.
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"syscall"
)

// NoItem is the Item value of a StageError that is not scoped to one work
// item (e.g. a panic in stage setup code rather than in a worker).
const NoItem = -1

// StageError wraps a failure with its pipeline location.
type StageError struct {
	// Stage names the pipeline stage, e.g. "keygen/wave" or "nonkey/tables".
	Stage string
	// Item is the index of the failing work item within the stage, or NoItem.
	Item int
	// Err is the underlying cause. For recovered panics it is a PanicError.
	Err error
	// Stack is the goroutine stack captured at recovery time; nil for
	// ordinary (non-panic) failures.
	Stack []byte
}

func (e *StageError) Error() string {
	if e.Item == NoItem {
		return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("stage %s, item %d: %v", e.Stage, e.Item, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// PanicError is the cause recorded when a panic is recovered. It preserves
// the panic value; if the value was itself an error it unwraps to it, so
// errors.Is/As see through containment.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() value into a StageError carrying the
// current stack. It must be called from the deferred function that observed
// the panic, so the stack still shows the panic site.
func Recovered(stage string, item int, r any) *StageError {
	return &StageError{Stage: stage, Item: item, Err: &PanicError{Value: r}, Stack: debug.Stack()}
}

// Wrap attaches a stage location to an ordinary error. A nil err maps to
// nil; an err that already is a *StageError passes through unchanged (the
// innermost location is the useful one).
func Wrap(stage string, item int, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Item: item, Err: err}
}

// Guard runs fn, converting a panic into a *StageError for the given stage.
// Ordinary errors pass through untouched.
func Guard(stage string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(stage, NoItem, r)
		}
	}()
	return fn()
}

// Transient is the pipeline's retry taxonomy: it reports whether an error is
// a transient condition a bounded retry may clear (storage.RetrySink
// consults it before backing off). Three classes exist:
//
//   - terminal: cancellation and deadline expiry are never transient — the
//     caller asked the run to stop, and retrying would fight it; likewise
//     any unrecognized error (a genuine bug should fail fast, not be
//     hammered into the sink N more times);
//   - transient: errors carrying a `Transient() bool` marker anywhere in
//     their chain (MarkTransient adds one), plus the interrupted/contention
//     syscall family (EINTR, EAGAIN, ETIMEDOUT, ECONNRESET, EBUSY) that
//     flaky filesystems and network mounts surface;
//   - injected: internal/faultinject's "flaky" rules return errors that are
//     both injected and marked transient, exercising exactly this path.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	for _, errno := range []syscall.Errno{
		syscall.EINTR, syscall.EAGAIN, syscall.ETIMEDOUT, syscall.ECONNRESET, syscall.EBUSY,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// transientError marks its cause as retry-worthy without hiding it.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so Transient reports true for it (and for anything
// that later wraps it). A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}
