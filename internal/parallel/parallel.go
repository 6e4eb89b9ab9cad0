// Package parallel provides the deterministic worker-pool primitive shared
// by the generation pipeline's hot paths (table materialization, FK wave
// population, workload validation).
//
// The determinism contract all callers rely on: work items are identified by
// index, every item's output is written to its own index-addressed slot, and
// no item reads another item's output. Under that discipline the result of a
// run is byte-identical at any worker count — scheduling only changes *when*
// an item runs, never *what* it computes. Item ordering effects (stats
// accumulation, column writes) are the caller's job: collect per-item
// results and merge them in index order after ForEachCtx returns.
//
// Failure semantics, at any worker count:
//
//   - Fail-fast: after the first item error (or a context cancellation) no
//     further items are claimed; items already in flight run to completion.
//   - Deterministic error selection: the error returned is the error of the
//     lowest-index failing item, wrapped in a *fault.StageError naming the
//     stage and item. Items are claimed in index order, so every item below
//     the first observed failure has been claimed and completes before the
//     pool returns — the lowest failing index is scheduling-independent.
//     Context cancellations surface as a *fault.StageError wrapping the
//     context's error, so errors.Is(err, context.Canceled) still holds.
//   - Panic containment: a panic inside an item is recovered into a typed
//     *fault.StageError carrying the stage name, item index, panic value and
//     stack, and aborts the loop like an ordinary error. A worker panic
//     never crashes the process.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachCtx runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns the error of the lowest-index failing item, or the context's
// error if cancellation stopped the loop before any item failed, or nil.
// stage labels contained panics and fault-injection points.
func ForEachCtx(ctx context.Context, stage string, workers, n int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, stage, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx with the claiming worker's id (in
// [0, workers)) passed alongside the item index, for callers that keep
// per-worker state (e.g. one read-only query engine per validation worker).
func ForEachWorkerCtx(ctx context.Context, stage string, workers, n int, fn func(worker, i int) error) error {
	return ForEachWorkerIdleCtx(ctx, stage, workers, n, fn, nil)
}

// ForEachWorkerIdleCtx is ForEachWorkerCtx that calls idle(worker), when
// idle is non-nil, once for each worker that finds no item left to claim,
// while items other workers claimed may still run: the caller can hand that
// worker's share of the machine to them. A worker that stops on an error or
// a cancellation is not idle. Only min(workers, n) workers exist.
func ForEachWorkerIdleCtx(ctx context.Context, stage string, workers, n int, fn func(worker, i int) error, idle func(worker int)) error {
	if n == 0 {
		return fault.Wrap(stage, fault.NoItem, ctx.Err())
	}
	if workers > n {
		workers = n
	}
	// Pool telemetry handles, resolved once per pool so the per-item cost is
	// atomics only. All are nil (no-op, no clock reads) when telemetry is off.
	reg := obs.From(ctx)
	itemsC := reg.CounterL("parallel_items_total", "stage", stage)
	itemH := reg.HistogramL("parallel_item_ns", "stage", stage)
	busyH := reg.HistogramL("parallel_worker_busy_ns", "stage", stage)
	waitH := reg.HistogramL("parallel_queue_wait_ns", "stage", stage)
	telemetry := reg != nil
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fault.Wrap(stage, fault.NoItem, err)
			}
			tm := itemH.Start()
			if err := runItem(stage, 0, i, fn); err != nil {
				return err
			}
			tm.Stop()
			itemsC.Inc()
		}
		if idle != nil {
			idle(0)
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			// Per-worker busy/wait split: busy is time inside items, wait is
			// everything else the worker spends alive (claim loop, abort
			// polling, scheduler gaps). Clock is only read when enabled.
			var workerStart time.Time
			var busyNS int64
			if telemetry {
				workerStart = time.Now()
				defer func() {
					busyH.Observe(busyNS)
					waitH.Observe(int64(time.Since(workerStart)) - busyNS)
				}()
			}
			for {
				if aborted.Load() || ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					if idle != nil {
						idle(worker)
					}
					return
				}
				tm := itemH.Start()
				if errs[i] = runItem(stage, worker, i, fn); errs[i] != nil {
					aborted.Store(true)
				}
				busyNS += int64(tm.Stop())
				itemsC.Inc()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fault.Wrap(stage, fault.NoItem, ctx.Err())
}

// runItem executes one item with panic containment and the per-item fault
// injection point. The injection check is one atomic load when no injector
// is active; items — not rows — are the instrumentation granularity, so the
// cost is invisible next to the item's own work. Failures — returned errors,
// injected faults, and recovered panics alike — come back as a typed
// *fault.StageError locating the stage and item (the innermost location
// wins for errors that already carry one).
func runItem(stage string, worker, i int, fn func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.Recovered(stage, i, r)
		}
	}()
	if err := faultinject.Fire(stage, i); err != nil {
		return fault.Wrap(stage, i, err)
	}
	return fault.Wrap(stage, i, fn(worker, i))
}
