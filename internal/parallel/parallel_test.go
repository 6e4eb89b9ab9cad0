package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		n := 103
		counts := make([]int64, n)
		if err := ForEachCtx(context.Background(), "test", workers, n, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	e3 := errors.New("three")
	e7 := errors.New("seven")
	err := ForEachCtx(context.Background(), "test", 4, 10, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if !errors.Is(err, e3) || errors.Is(err, e7) {
		t.Fatalf("err = %v, want the index-3 error", err)
	}
}

func TestForEachSequentialFailFast(t *testing.T) {
	var ran int
	err := ForEachCtx(context.Background(), "test", 1, 10, func(i int) error {
		ran++
		if i == 2 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Fatalf("sequential path must fail fast: ran=%d err=%v", ran, err)
	}
}

func TestForEachWorkerIDsInRange(t *testing.T) {
	workers := 3
	err := ForEachWorkerCtx(context.Background(), "test", workers, 50, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker id %d out of range", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEachCtx(context.Background(), "test", 4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("Workers must normalize non-positive counts to >= 1")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers must pass positive counts through")
	}
}

// TestForEachIdleWhileItemsRun: every worker that finds no item left calls
// idle once, while an item another worker claimed is still running — so a
// caller can hand that worker to the running item.
func TestForEachIdleWhileItemsRun(t *testing.T) {
	const workers = 3
	var idled [workers]atomic.Int64
	var idleCount atomic.Int64
	twoIdle := make(chan struct{})
	err := ForEachWorkerIdleCtx(context.Background(), "test", workers, workers, func(_, i int) error {
		if i == 0 {
			<-twoIdle // item 0 ends only after the other two workers went idle
		}
		return nil
	}, func(w int) {
		idled[w].Add(1)
		if idleCount.Add(1) == workers-1 {
			close(twoIdle)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range idled {
		if n := idled[w].Load(); n != 1 {
			t.Fatalf("worker %d went idle %d times, want 1", w, n)
		}
	}
}
