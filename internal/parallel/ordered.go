package parallel

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
)

// Slots returns how many items OrderedCtx keeps in flight at workers
// workers: one at one worker, where everything runs inline, and otherwise
// 2×workers+1 — one per worker running an item, one per worker holding a
// finished item that waits for an earlier one, and the one being committed.
// An item owns a slot from the moment a worker takes it until it is
// committed, so a caller can keep one output buffer per slot.
func Slots(workers int) int {
	if workers <= 1 {
		return 1
	}
	return 2*workers + 1
}

// OrderedCtx runs run(worker, slot, i) for every i in [0, n) on up to workers
// goroutines and commit(slot, i) for every i, in index order, on the calling
// goroutine: work in parallel, one writer. worker is in [0, workers) and slot
// in [0, Slots(workers)); a worker owns its state while it runs an item, an
// item owns its slot's state until its commit returns. A worker takes the
// slot committed last, so a slot's buffers are reused while they are warm and
// only as many slots fill as items were ever in flight at once.
//
// Item i is gated on the calling goroutine, in index order, before a worker
// may take it: the fault-injection point of (stage, i), then the context
// check, so an injected fault or a cancellation lands on the item it names
// at any worker count. Item i is gated only once item i-Slots(workers) is
// committed, which bounds the lookahead.
//
// The error returned is the lowest failing item's: every item before it is
// committed and no item after it is. A failed gate, an error run returns and
// a panic in run come back as a *fault.StageError naming stage and item.
// commit runs on the caller's goroutine and knows its item, so its error is
// returned as it is and a panic in it is the caller's own, raised once every
// worker is joined. At one worker nothing starts a goroutine and nothing is
// allocated per item.
func OrderedCtx(ctx context.Context, stage string, workers, n int, run func(worker, slot, i int) error, commit func(slot, i int) error) error {
	if n == 0 {
		return fault.Wrap(stage, fault.NoItem, ctx.Err())
	}
	workers = min(workers, n)
	m := newPoolMetrics(ctx, stage)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := gate(ctx, stage, i); err != nil {
				return err
			}
			tm := m.item.Start()
			err := runSlot(stage, 0, 0, i, run)
			tm.Stop()
			m.items.Inc()
			if err == nil {
				err = commit(0, i)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	slots := Slots(workers)
	// todo hands gated items to the workers, and done[i % slots] returns
	// item i's slot and run error. Neither send ever blocks: at most slots
	// items are gated and uncommitted, and item i is only gated once the
	// caller took item i-slots's result. free is the stack of slots no item
	// holds; it is never empty when a worker pops it, for the same reason.
	todo := make(chan int, slots)
	type result struct {
		slot int
		err  error
	}
	done := make([]chan result, slots)
	for s := range done {
		done[s] = make(chan result, 1)
	}
	var mu sync.Mutex
	free := make([]int, slots)
	for s := range free {
		free[s] = slots - 1 - s
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			clock := m.startWorker()
			defer clock.stop()
			for i := range todo {
				if stop.Load() {
					continue // the caller has returned: drain what was gated
				}
				mu.Lock()
				slot := free[len(free)-1]
				free = free[:len(free)-1]
				mu.Unlock()
				tm := m.item.Start()
				err := runSlot(stage, worker, slot, i, run)
				clock.busy += tm.Stop()
				m.items.Inc()
				done[i%slots] <- result{slot, err}
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		close(todo)
		wg.Wait()
	}()

	next := 0 // the next item to gate
	var gateErr error
	for c := 0; c < n; c++ {
		for gateErr == nil && next < n && next < c+slots {
			if gateErr = gate(ctx, stage, next); gateErr == nil {
				todo <- next
				next++
			}
		}
		if c == next {
			return gateErr // item c failed its gate
		}
		r := <-done[c%slots]
		err := r.err
		if err == nil {
			err = commit(r.slot, c)
		}
		if err != nil {
			return err
		}
		mu.Lock()
		free = append(free, r.slot)
		mu.Unlock()
	}
	return nil
}

// gate is item i's fault point: the injection point, then the context. The
// context is polled after the injection point, so an injected cancel is
// reported by the item it landed in.
func gate(ctx context.Context, stage string, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.Recovered(stage, i, r)
		}
	}()
	if err := faultinject.Fire(stage, i); err != nil {
		return fault.Wrap(stage, i, err)
	}
	return fault.Wrap(stage, i, ctx.Err())
}

// runSlot runs item i with panic containment, its failure located at (stage,
// i).
func runSlot(stage string, worker, slot, i int, run func(worker, slot, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.Recovered(stage, i, r)
		}
	}()
	return fault.Wrap(stage, i, run(worker, slot, i))
}
