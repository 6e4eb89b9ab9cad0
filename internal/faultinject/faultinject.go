// Package faultinject is a deterministic fault-injection harness for the
// generation pipeline, in the spirit of the chaos tooling production data
// systems use to rehearse failure: tests (and only tests) activate an
// Injector whose rules force a panic in a chosen worker item, fail a chosen
// stage with a chosen error, or cancel the run at a stage boundary — all
// chosen deterministically, optionally derived from a seed.
//
// The harness is disabled by default and costs one atomic pointer load per
// instrumented *work item* (never per row) when off: pipeline code calls
// Fire(stage, item) at item granularity, which returns immediately while no
// Injector is active.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dbhammer/mirage/internal/obs"
)

// ErrInjected is the root cause of every injected error and panic, so tests
// can assert provenance with errors.Is regardless of how many wrapping
// layers the pipeline added.
var ErrInjected = errors.New("faultinject: injected fault")

// Action selects what a matching rule does.
type Action int

const (
	// Panic makes Fire panic at the matching item; the pipeline's panic
	// containment must convert it into a fault.StageError.
	Panic Action = iota
	// Error makes Fire return the rule's Err (wrapped around ErrInjected).
	Error
	// Cancel invokes the context.CancelFunc bound to the injector, modeling
	// an operator Ctrl-C or deadline firing at a stage boundary.
	Cancel
	// Flaky makes Fire fail the first Rule.Times matching calls with a
	// *transient* error (fault.Transient reports true), then succeed forever
	// after — the model of a flaky disk or network sink that retry/backoff
	// paths are tested against.
	Flaky
)

func (a Action) String() string {
	switch a {
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Cancel:
		return "cancel"
	case Flaky:
		return "flaky"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// AnyItem matches every item index of a stage.
const AnyItem = -1

// Rule arms one fault. Panic/Error/Cancel rules are one-shot: they fire on
// the first match and disarm, so a retrying pipeline observes exactly one
// fault. Flaky rules fire Times times, then disarm.
type Rule struct {
	// Stage matches the instrumentation point's stage name exactly
	// (e.g. "keygen/wave", "nonkey/tables", "generate/keygen").
	Stage string
	// Item is the work-item index the rule fires at, or AnyItem.
	Item int
	// Action is what happens on match.
	Action Action
	// Err overrides the returned error for Error and Flaky rules (it is
	// wrapped so errors.Is(err, ErrInjected) still holds).
	Err error
	// Times is the number of matching calls a Flaky rule fails before it
	// disarms and lets the op succeed (0 behaves as 1). Ignored by other
	// actions.
	Times int
}

// injectedError carries the fault's location and provenance.
type injectedError struct {
	stage     string
	item      int
	cause     error
	transient bool
}

// Transient classifies the injected fault for internal/fault.Transient:
// Flaky rules inject transient errors (so retry paths engage); every other
// injected error defers to its cause's own classification (a terminal cause
// stays terminal).
func (e *injectedError) Transient() bool {
	if e.transient {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(e.cause, &t) && t.Transient()
}

func (e *injectedError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("faultinject: %s[%d]: %v", e.stage, e.item, e.cause)
	}
	return fmt.Sprintf("faultinject: %s[%d]", e.stage, e.item)
}

func (e *injectedError) Unwrap() []error {
	if e.cause != nil {
		return []error{ErrInjected, e.cause}
	}
	return []error{ErrInjected}
}

// Injector holds armed rules. Activate installs it globally; rules fire
// deterministically (first matching armed rule, in rule order).
type Injector struct {
	mu        sync.Mutex
	rules     []Rule
	armed     []bool
	remaining []int // Flaky rules: failures left before the rule disarms
	cancel    context.CancelFunc
	fired     []string
}

// New builds an injector from rules.
func New(rules ...Rule) *Injector {
	in := &Injector{rules: rules, armed: make([]bool, len(rules)), remaining: make([]int, len(rules))}
	for i := range in.armed {
		in.armed[i] = true
		in.remaining[i] = max(1, rules[i].Times)
	}
	return in
}

// BindCancel gives Cancel rules the context's cancel function to invoke.
func (in *Injector) BindCancel(cancel context.CancelFunc) {
	in.mu.Lock()
	in.cancel = cancel
	in.mu.Unlock()
}

// Fired reports every fault fired so far, in firing order, as
// "stage[item]:action" strings — the test-side audit trail.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.fired...)
}

// ItemFromSeed deterministically derives an item index in [0, n) from a
// seed and a stage name, so seed-sweep tests hit different workers without
// hand-picking indices (splitmix64 finalizer over seed ⊕ stage hash).
func ItemFromSeed(seed int64, stage string, n int) int {
	if n <= 0 {
		return 0
	}
	z := uint64(seed)
	for _, b := range []byte(stage) {
		z = (z ^ uint64(b)) * 0x9e3779b97f4a7c15
	}
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// active is the globally installed injector; nil means disabled. A global
// is the point: instrumentation sites deep in the pipeline need no plumbed
// handle, and the nil fast path keeps the production cost to one atomic
// load per work item.
var active atomic.Pointer[Injector]

// Activate installs the injector and returns the deactivation function.
// Tests must call the returned function (defer it) before the next
// activation; concurrent activations are a test bug.
func Activate(in *Injector) func() {
	if !active.CompareAndSwap(nil, in) {
		panic("faultinject: injector already active")
	}
	return func() { active.CompareAndSwap(in, nil) }
}

// Fire is the instrumentation point pipeline code calls once per work item
// (item = AnyItem for stage boundaries). With no active injector it returns
// nil immediately. A matching Panic rule panics with an error value wrapping
// ErrInjected; a matching Error rule returns its error; a matching Cancel
// rule invokes the bound cancel function and returns nil (the cancellation
// then propagates through ordinary context checks).
func Fire(stage string, item int) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.fire(stage, item)
}

func (in *Injector) fire(stage string, item int) error {
	in.mu.Lock()
	for i := range in.rules {
		r := &in.rules[i]
		if !in.armed[i] || r.Stage != stage {
			continue
		}
		if r.Item != AnyItem && r.Item != item {
			continue
		}
		if r.Action == Flaky {
			in.remaining[i]--
			if in.remaining[i] <= 0 {
				in.armed[i] = false
			}
			in.fired = append(in.fired, fmt.Sprintf("%s[%d]:%s", stage, item, r.Action))
			obs.Active().CounterL("faults_injected_total", "stage", stage).Inc()
			in.mu.Unlock()
			return &injectedError{stage: stage, item: item, cause: r.Err, transient: true}
		}
		in.armed[i] = false
		in.fired = append(in.fired, fmt.Sprintf("%s[%d]:%s", stage, item, r.Action))
		obs.Active().CounterL("faults_injected_total", "stage", stage).Inc()
		cancel := in.cancel
		in.mu.Unlock()
		switch r.Action {
		case Panic:
			panic(&injectedError{stage: stage, item: item})
		case Error:
			return &injectedError{stage: stage, item: item, cause: r.Err}
		case Cancel:
			if cancel == nil {
				return &injectedError{stage: stage, item: item,
					cause: errors.New("cancel rule fired with no bound CancelFunc")}
			}
			cancel()
			return nil
		}
		return nil
	}
	in.mu.Unlock()
	return nil
}
