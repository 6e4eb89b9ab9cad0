package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
)

// TestFailFastStopsClaiming: after the first error no further items are
// claimed. Items other than the failing one block until the pool has
// recorded the error — it counts an item only after that — so anything
// executed beyond that point was claimed into the abort window — a handful
// of in-flight items at most, never the rest of the range.
func TestFailFastStopsClaiming(t *testing.T) {
	const n = 10000
	boom := errors.New("boom")
	reg := obs.NewRegistry()
	counted := reg.CounterL("parallel_items_total", "stage", "test")
	failed := make(chan struct{})
	go func() {
		for counted.Value() == 0 {
			runtime.Gosched()
		}
		close(failed)
	}()
	var executed int64
	err := ForEachCtx(obs.WithRegistry(context.Background(), reg), "test", 4, n, func(i int) error {
		atomic.AddInt64(&executed, 1)
		if i == 0 {
			return boom
		}
		<-failed
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := atomic.LoadInt64(&executed); got > n/2 {
		t.Fatalf("%d of %d items executed after fail-fast abort", got, n)
	}
}

func TestPanicContainedToStageError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), "nonkey/fill", workers, 32, func(i int) error {
			if i == 7 {
				panic("worker blew up")
			}
			return nil
		})
		var se *fault.StageError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err = %v, want *fault.StageError", workers, err)
		}
		if se.Stage != "nonkey/fill" || se.Item != 7 {
			t.Fatalf("workers=%d: location = %s[%d]", workers, se.Stage, se.Item)
		}
		if len(se.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
	}
}

func TestCancellationStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed int64
		err := ForEachCtx(ctx, "test", workers, 10000, func(i int) error {
			if atomic.AddInt64(&executed, 1) == 8 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := atomic.LoadInt64(&executed); got > 5000 {
			t.Fatalf("workers=%d: %d items executed after cancel", workers, got)
		}
	}
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed int64
	err := ForEachCtx(ctx, "test", 4, 100, func(i int) error {
		atomic.AddInt64(&executed, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if executed != 0 {
		t.Fatalf("%d items ran under a pre-canceled context", executed)
	}
	// Zero items: the context error still surfaces.
	if err := ForEachCtx(ctx, "test", 4, 0, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0 err = %v", err)
	}
}

func TestInjectedWorkerFault(t *testing.T) {
	in := faultinject.New(faultinject.Rule{Stage: "keygen/wave", Item: 3, Action: faultinject.Panic})
	defer faultinject.Activate(in)()
	err := ForEachCtx(context.Background(), "keygen/wave", 2, 8, func(i int) error { return nil })
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != "keygen/wave" || se.Item != 3 {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal("contained injected panic must keep ErrInjected provenance")
	}
}

// TestNoGoroutineLeak drives the pool through error, panic, and cancellation
// exits many times and checks the process goroutine count settles back to
// its baseline: every worker goroutine is joined before the pool returns.
func TestNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("boom")
	for round := 0; round < 50; round++ {
		_ = ForEachCtx(context.Background(), "leak", 8, 64, func(i int) error {
			if i == 5 {
				return boom
			}
			return nil
		})
		_ = ForEachCtx(context.Background(), "leak", 8, 64, func(i int) error {
			if i == 9 {
				panic("leak check")
			}
			return nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		_ = ForEachCtx(ctx, "leak", 8, 64, func(i int) error {
			if i == 3 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	if !settlesTo(baseline, time.Second) {
		t.Fatalf("goroutines: %d before, %d after", baseline, runtime.NumGoroutine())
	}
}

// settlesTo polls until the goroutine count drops to at most target (plus
// scheduling slack) or the deadline passes.
func settlesTo(target int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		if runtime.NumGoroutine() <= target+2 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
