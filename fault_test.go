package mirage

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/keygen"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
	"github.com/dbhammer/mirage/internal/workload"
)

func paperProblem(t *testing.T) *Problem {
	t.Helper()
	w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(testutil.PaperDB(), w)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// checkColumnsCompleteOrAbsent asserts the committed-state invariant the
// pipeline guarantees on every exit path: within a table, every column is
// either fully materialized (same length as the table's longest column) or
// untouched — never a torn prefix.
func checkColumnsCompleteOrAbsent(t *testing.T, db *storage.DB) {
	t.Helper()
	for name, tab := range db.Tables {
		n := 0
		for i := range tab.Meta.Columns {
			if l := len(tab.Col(tab.Meta.Columns[i].Name)); l > n {
				n = l
			}
		}
		for i := range tab.Meta.Columns {
			col := tab.Meta.Columns[i].Name
			if l := len(tab.Col(col)); l != 0 && l != n {
				t.Errorf("%s.%s: torn column, %d of %d rows", name, col, l, n)
			}
		}
	}
}

// TestInjectedWorkerPanicContained: a panic injected into one non-key table
// worker comes back as a typed *StageError carrying the stage, item, stack
// and injection provenance — never a process crash.
func TestInjectedWorkerPanicContained(t *testing.T) {
	prob := paperProblem(t)
	in := faultinject.New(faultinject.Rule{Stage: "nonkey/tables", Item: 0, Action: faultinject.Panic})
	defer faultinject.Activate(in)()

	_, err := Generate(prob, Options{Seed: 42})
	if err == nil {
		t.Fatal("injected panic did not fail generation")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "nonkey/tables" || se.Item != 0 {
		t.Fatalf("location = %s[%d]", se.Stage, se.Item)
	}
	if len(se.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal("injection provenance lost")
	}
	if got := in.Fired(); len(got) != 1 {
		t.Fatalf("Fired() = %v, want exactly one fault", got)
	}
}

// TestInjectedKeygenPanicContained exercises containment in the second
// pipeline stage (FK wave workers), with the item chosen from a seed the way
// a sweep harness would.
func TestInjectedKeygenPanicContained(t *testing.T) {
	prob := paperProblem(t)
	item := faultinject.ItemFromSeed(42, "keygen/wave", len(prob.Plan.Units))
	in := faultinject.New(faultinject.Rule{Stage: "keygen/wave", Item: item, Action: faultinject.Panic})
	defer faultinject.Activate(in)()

	_, err := Generate(prob, Options{Seed: 42})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "keygen/wave" {
		t.Fatalf("stage = %s", se.Stage)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal("injection provenance lost")
	}
}

// TestInjectedStageCancel: a Cancel rule firing at the keygen stage boundary
// models an operator interrupt landing on a stage edge. The returned error
// is a *StageError that still unwraps to context.Canceled, and the non-key
// stage's committed columns are complete.
func TestInjectedStageCancel(t *testing.T) {
	prob := paperProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(faultinject.Rule{Stage: "generate/keygen", Item: faultinject.AnyItem, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	defer faultinject.Activate(in)()

	_, err := GenerateCtx(ctx, prob, Options{Seed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "generate/keygen" {
		t.Fatalf("err = %v, want *StageError at generate/keygen", err)
	}
}

// TestInjectedKeygenErrorPropagates: an error (not a panic) injected into an
// FK wave worker is terminal and keeps both its StageError location and its
// injection provenance through every wrapping layer.
func TestInjectedKeygenErrorPropagates(t *testing.T) {
	prob := paperProblem(t)
	in := faultinject.New(faultinject.Rule{Stage: "keygen/wave", Item: faultinject.AnyItem, Action: faultinject.Error})
	defer faultinject.Activate(in)()

	_, err := Generate(prob, Options{Seed: 42})
	if err == nil {
		t.Fatal("injected keygen error did not fail generation")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected provenance", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "keygen/wave" {
		t.Fatalf("err = %v, want *StageError at keygen/wave", err)
	}
}

// TestDegradationsEmptyOnCleanRun: the ledger reports only real events, and
// the paper problem is solved exactly — no resize, no restart.
func TestDegradationsEmptyOnCleanRun(t *testing.T) {
	prob := paperProblem(t)
	res, err := Generate(prob, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 0 {
		t.Fatalf("clean paper run should degrade nowhere: %+v", res.Degradations)
	}
}

// TestInjectedBuildProblemPanicContained covers the trace/rewrite stage: on
// the paper workload, and on SSB's 13 templates traced by two workers, where
// a panic or an error injected into template 7 comes back as
// *StageError{build/template, 7} and an interrupt landing there as a wrapped
// context.Canceled, each with every worker joined.
func TestInjectedBuildProblemPanicContained(t *testing.T) {
	w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Rule{Stage: "build/template", Item: 1, Action: faultinject.Panic})
	deactivate := faultinject.Activate(in)
	_, err = BuildProblem(testutil.PaperDB(), w)
	deactivate()
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "build/template" || se.Item != 1 {
		t.Fatalf("err = %v, want *StageError at build/template[1]", err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(0.2)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, action := range []faultinject.Action{faultinject.Panic, faultinject.Error, faultinject.Cancel} {
		w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Templates) != 13 {
			t.Fatalf("SSB has %d templates, want 13", len(w.Templates))
		}
		ctx, cancel := context.WithCancel(context.Background())
		in := faultinject.New(faultinject.Rule{Stage: "build/template", Item: 7, Action: action})
		in.BindCancel(cancel)
		deactivate := faultinject.Activate(in)
		_, err = BuildProblemCtx(ctx, original, w)
		deactivate()
		cancel()
		if action == faultinject.Cancel {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel: err = %v, want wrapped context.Canceled", err)
			}
		} else if !errors.As(err, &se) || se.Stage != "build/template" || se.Item != 7 || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("action %v: err = %v, want injected *StageError at build/template[7]", action, err)
		}
		if got := in.Fired(); len(got) != 1 {
			t.Fatalf("action %v: Fired() = %v, want exactly one fault", action, got)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("action %v: goroutines: %d before, %d after", action, baseline, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestBuildProblemCancelReachesCount cancels BuildProblemCtx at the first
// window of a table pass annotation counts with: the count's pass stops
// there and the build returns the context's error, located at that window
// (engine/window, the innermost stage), with every worker joined.
func TestBuildProblemCancelReachesCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(0.2)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(faultinject.Rule{Stage: engine.WindowStage, Item: 0, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	deactivate := faultinject.Activate(in)
	_, err = BuildProblemCtx(ctx, original, w)
	deactivate()
	var se *StageError
	if !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Stage != engine.WindowStage || se.Item != 0 {
		t.Fatalf("err = %v, want context.Canceled at %s[0]", err, engine.WindowStage)
	}
	if got := in.Fired(); len(got) != 1 {
		t.Fatalf("Fired() = %v, want the one cancel", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKeygenCancelLeavesNoTornColumns cancels FK population mid-stage and
// checks the wave-commit contract on the database it was writing into:
// every column is complete or absent, and the error wraps context.Canceled.
func TestKeygenCancelLeavesNoTornColumns(t *testing.T) {
	prob := paperProblem(t)
	db := storage.NewDB(prob.Workload.Schema)
	order, err := prob.Workload.Schema.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	nkCfg := nonkey.Config{SampleSize: nonkey.DefaultSampleSize, Seed: 42, Parallelism: 2}
	if _, _, err := nonkey.GenerateTables(context.Background(), nkCfg, db, order, prob.Plan.SelByTable, 0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(faultinject.Rule{Stage: "keygen/wave", Item: 0, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	defer faultinject.Activate(in)()

	_, err = keygen.Populate(ctx, keygen.Config{Seed: 42, Parallelism: 2}, prob.Plan, db)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	checkColumnsCompleteOrAbsent(t, db)
}

// TestKeygenCancelSpreadOverRun: TPC-DS at parallelism 8 leaves keygen
// waves with spare workers, which run stuck FK units' restart attempts
// ahead. A cancel at each quarter of an uncancelled run's time must unwind
// cleanly: the run returns a wrapped context.Canceled (or had finished) and
// leaves no goroutine behind — every attempt run ahead is joined.
func TestKeygenCancelSpreadOverRun(t *testing.T) {
	const sf, parallelism = 0.001, 8
	baseline := runtime.NumGoroutine()
	start := time.Now()
	if _, err := GenerateCtx(context.Background(), streamProblem(t, "tpcds", sf), Options{Seed: 3, Parallelism: parallelism}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	cancelled := 0
	for i := 1; i < 4; i++ {
		prob := streamProblem(t, "tpcds", sf)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(full*time.Duration(i)/4, cancel)
		_, err := GenerateCtx(ctx, prob, Options{Seed: 3, Parallelism: parallelism})
		timer.Stop()
		cancel()
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d/4 of the run: err = %v, want wrapped context.Canceled", i, err)
		}
		cancelled++
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("cancel at %d/4 of the run: goroutines %d before, %d after", i, baseline, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("%d of 3 cancels landed before the run finished", cancelled)
}

// TestGenerateCtxCancelMidCS: an in-memory run makes the same gated table
// passes as a streamed one, so an interrupt or a fault lands inside an FK
// unit's CS stage — in window 1 of the first pass over SSB's fact table —
// instead of waiting for the unit boundary. Cancel, panic and error all come
// back as *StageError{engine/window, 1}.
func TestGenerateCtxCancelMidCS(t *testing.T) {
	for _, action := range []faultinject.Action{faultinject.Cancel, faultinject.Panic, faultinject.Error} {
		// SF 2: lineorder's 120 000 rows span two default windows.
		prob := streamProblem(t, "ssb", 2)
		ctx, cancel := context.WithCancel(context.Background())
		in := faultinject.New(faultinject.Rule{Stage: engine.WindowStage, Item: 1, Action: action})
		in.BindCancel(cancel)
		deactivate := faultinject.Activate(in)
		_, err := GenerateCtx(ctx, prob, Options{Seed: 3})
		deactivate()
		cancel()
		var se *StageError
		if !errors.As(err, &se) || se.Stage != engine.WindowStage || se.Item != 1 {
			t.Fatalf("action %v: err = %v, want StageError{%s, 1}", action, err, engine.WindowStage)
		}
		if action == faultinject.Cancel {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel: err = %v, want wrapped context.Canceled", err)
			}
		} else if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("action %v: err = %v, want injection provenance", action, err)
		}
	}
}

// TestMidRunCancelTPCH is the headline robustness check: cancel a TPC-H
// SF=0.5 generation mid-run and require a prompt, clean unwind — a wrapped
// context.Canceled, no panic, no goroutine left behind.
func TestMidRunCancelTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H generation")
	}
	spec, err := workload.ByName("tpch")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(0.5)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	// Cancel delays shrink until one lands mid-generation; on a machine
	// fast enough to finish a whole SF=0.5 run inside the smallest delay
	// the loop degenerates to a plain success, which is also acceptable.
	// Each attempt rebuilds the problem: generation instantiates the shared
	// template parameters, so attempts must not reuse one Problem.
	for _, delay := range []time.Duration{40 * time.Millisecond, 10 * time.Millisecond, time.Millisecond, 0} {
		w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := BuildProblem(original, w)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		_, err = GenerateCtx(ctx, prob, Options{Seed: 11, Parallelism: 2})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			continue // finished before the cancel landed; try a shorter delay
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want wrapped context.Canceled", delay, err)
		}
		if elapsed > delay+2*time.Second {
			t.Fatalf("unwind took %v after a %v delay", elapsed, delay)
		}
		// Clean unwind: every worker goroutine joined.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline+2 {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d before, %d after cancel", baseline, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
		return
	}
	t.Log("generation finished before every cancel delay; cancellation path not exercised on this machine")
}

// TestErrTimeoutSurfacesFromDeadline: an already-expired deadline fails fast
// with an error wrapping context.DeadlineExceeded.
func TestErrTimeoutSurfacesFromDeadline(t *testing.T) {
	prob := paperProblem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := GenerateCtx(ctx, prob, Options{Seed: 42})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}
