package faultinject

import (
	"context"
	"errors"
	"testing"
)

func TestDisabledIsNoOp(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("no injector should be active by default")
	}
	if err := Fire("keygen/wave", 3); err != nil {
		t.Fatalf("Fire with no injector = %v", err)
	}
}

func TestErrorRuleIsOneShot(t *testing.T) {
	in := New(Rule{Stage: "keygen/wave", Item: 2, Action: Error})
	defer Activate(in)()

	if err := Fire("keygen/wave", 1); err != nil {
		t.Fatalf("non-matching item fired: %v", err)
	}
	if err := Fire("nonkey/tables", 2); err != nil {
		t.Fatalf("non-matching stage fired: %v", err)
	}
	err := Fire("keygen/wave", 2)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("matching Fire = %v, want ErrInjected", err)
	}
	if err := Fire("keygen/wave", 2); err != nil {
		t.Fatalf("one-shot rule fired twice: %v", err)
	}
	want := []string{"keygen/wave[2]:error"}
	if got := in.Fired(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Fired() = %v, want %v", got, want)
	}
}

func TestErrorRuleWrapsCause(t *testing.T) {
	cause := errors.New("domain-specific failure")
	in := New(Rule{Stage: "s", Item: AnyItem, Action: Error, Err: cause})
	defer Activate(in)()
	err := Fire("s", 99)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both ErrInjected and cause", err)
	}
}

func TestPanicRule(t *testing.T) {
	in := New(Rule{Stage: "nonkey/fill", Item: 0, Action: Panic})
	defer Activate(in)()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Fire("nonkey/fill", 0)
	}()
	if recovered == nil {
		t.Fatal("Panic rule did not panic")
	}
	// The panic value is an error wrapping ErrInjected, so panic
	// containment layers can attribute it with errors.Is.
	err, ok := recovered.(error)
	if !ok || !errors.Is(err, ErrInjected) {
		t.Fatalf("panic value = %v", recovered)
	}
}

func TestCancelRule(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := New(Rule{Stage: "generate/keygen", Item: AnyItem, Action: Cancel})
	in.BindCancel(cancel)
	defer Activate(in)()
	if err := Fire("generate/keygen", AnyItem); err != nil {
		t.Fatalf("Cancel rule should return nil, got %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("bound context not canceled")
	}
}

func TestCancelRuleWithoutBindErrors(t *testing.T) {
	in := New(Rule{Stage: "s", Item: AnyItem, Action: Cancel})
	defer Activate(in)()
	if err := Fire("s", 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("unbound Cancel rule = %v, want ErrInjected", err)
	}
}

func TestItemFromSeedDeterministicAndInRange(t *testing.T) {
	a := ItemFromSeed(42, "keygen/wave", 17)
	b := ItemFromSeed(42, "keygen/wave", 17)
	if a != b {
		t.Fatalf("not deterministic: %d vs %d", a, b)
	}
	if a < 0 || a >= 17 {
		t.Fatalf("out of range: %d", a)
	}
	if ItemFromSeed(42, "keygen/wave", 0) != 0 {
		t.Fatal("n<=0 should map to 0")
	}
	// Different stages decorrelate: at least one of a few seeds must
	// pick a different item for a different stage name.
	diff := false
	for seed := int64(0); seed < 8 && !diff; seed++ {
		diff = ItemFromSeed(seed, "a", 1000) != ItemFromSeed(seed, "b", 1000)
	}
	if !diff {
		t.Fatal("stage name does not influence item choice")
	}
}

func TestDoubleActivatePanics(t *testing.T) {
	in := New()
	defer Activate(in)()
	defer func() {
		if recover() == nil {
			t.Fatal("second Activate should panic")
		}
	}()
	Activate(New())
}

// TestFlakyRule: a flaky rule fails exactly Times matching calls with a
// transient, injection-tagged error, then stands aside forever.
func TestFlakyRule(t *testing.T) {
	in := New(Rule{Stage: "sink/write", Item: AnyItem, Action: Flaky, Times: 2, Err: errors.New("io blip")})
	defer Activate(in)()
	for i := 0; i < 2; i++ {
		err := Fire("sink/write", i)
		if err == nil {
			t.Fatalf("call %d: flaky rule did not fire", i)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: lost provenance: %v", i, err)
		}
		var tr interface{ Transient() bool }
		if !errors.As(err, &tr) || !tr.Transient() {
			t.Fatalf("call %d: flaky error not transient: %v", i, err)
		}
	}
	for i := 2; i < 5; i++ {
		if err := Fire("sink/write", i); err != nil {
			t.Fatalf("call %d: disarmed flaky rule fired: %v", i, err)
		}
	}
	// Other stages never match.
	if err := Fire("sink/open", 0); err != nil {
		t.Fatalf("wrong stage fired: %v", err)
	}
	fired := in.Fired()
	if len(fired) != 2 || fired[0] != "sink/write[0]:flaky" || fired[1] != "sink/write[1]:flaky" {
		t.Fatalf("audit trail = %v", fired)
	}
}

// TestFlakyTimesZero: Times 0 behaves as 1 (fail once, then succeed).
func TestFlakyTimesZero(t *testing.T) {
	in := New(Rule{Stage: "s", Item: AnyItem, Action: Flaky})
	defer Activate(in)()
	if err := Fire("s", 0); err == nil {
		t.Fatal("first call should fail")
	}
	if err := Fire("s", 0); err != nil {
		t.Fatalf("second call should succeed: %v", err)
	}
}

// TestFlakyActionString covers the new action's debug name.
func TestFlakyActionString(t *testing.T) {
	if got := Flaky.String(); got != "flaky" {
		t.Fatalf("Flaky.String() = %q", got)
	}
}
