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
