package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
)

// orderedProbe drives OrderedCtx over n items that take random times and
// checks the contract as they run: every item runs once, on a worker and a
// slot in range, never more than Slots items ahead of the last commit and
// never while another item holds its slot; commits arrive in index order,
// each with the slot its item ran in.
type orderedProbe struct {
	t         *testing.T
	workers   int
	slots     int
	delay     []time.Duration
	ran       []atomic.Int32
	holder    []atomic.Int64 // item+1 holding each slot, 0 when free
	committed atomic.Int64   // items committed so far
	commits   []int
	failRun   map[int]error
	failAt    map[int]error
	bad       atomic.Value // first contract violation seen on a worker
}

func newOrderedProbe(t *testing.T, workers, n int, seed int64) *orderedProbe {
	rng := rand.New(rand.NewSource(seed))
	p := &orderedProbe{t: t, workers: workers, slots: Slots(workers),
		delay: make([]time.Duration, n), ran: make([]atomic.Int32, n)}
	p.holder = make([]atomic.Int64, p.slots)
	for i := range p.delay {
		if rng.Intn(3) == 0 {
			p.delay[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
	}
	return p
}

func (p *orderedProbe) violate(format string, args ...any) {
	p.bad.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

func (p *orderedProbe) run(worker, slot, i int) error {
	if worker < 0 || worker >= p.workers || slot < 0 || slot >= p.slots {
		p.violate("item %d ran on worker %d slot %d (workers %d, slots %d)", i, worker, slot, p.workers, p.slots)
	}
	if c := p.committed.Load(); int64(i) >= c+int64(p.slots) {
		p.violate("item %d claimed with %d committed: more than %d slots ahead", i, c, p.slots)
	}
	if !p.holder[slot].CompareAndSwap(0, int64(i)+1) {
		p.violate("item %d took slot %d while item %d held it", i, slot, p.holder[slot].Load()-1)
	}
	p.ran[i].Add(1)
	if d := p.delay[i]; d > 0 {
		time.Sleep(d)
	}
	if err := p.failRun[i]; err != nil {
		if err == errPanic {
			panic(fmt.Sprintf("item %d blew up", i))
		}
		return err
	}
	return nil
}

var errPanic = errors.New("panic")

func (p *orderedProbe) commit(slot, i int) error {
	if h := p.holder[slot].Swap(0); h != int64(i)+1 {
		p.violate("item %d committed with slot %d, which item %d held", i, slot, h-1)
	}
	p.commits = append(p.commits, i)
	p.committed.Add(1)
	if err := p.failAt[i]; err != nil {
		if err == errPanic {
			panic(fmt.Sprintf("commit %d blew up", i))
		}
		return err
	}
	return nil
}

// check requires the commits to be exactly items [0, upTo), each item below
// upTo to have run once, and the run to have seen no contract violation.
func (p *orderedProbe) check(name string, upTo int) {
	p.t.Helper()
	if v := p.bad.Load(); v != nil {
		p.t.Fatalf("%s: %s", name, v)
	}
	if len(p.commits) != upTo {
		p.t.Fatalf("%s: %d commits, want items 0..%d", name, len(p.commits), upTo-1)
	}
	for k, i := range p.commits {
		if i != k {
			p.t.Fatalf("%s: commit %d was item %d: out of order", name, k, i)
		}
		if n := p.ran[i].Load(); n != 1 {
			p.t.Fatalf("%s: item %d ran %d times", name, i, n)
		}
	}
	for i := range p.ran {
		if n := p.ran[i].Load(); n > 1 {
			p.t.Fatalf("%s: item %d ran %d times", name, i, n)
		}
	}
}

func checkStageError(t *testing.T, name string, err error, stage string, item int, cause error) {
	t.Helper()
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != stage || se.Item != item || (cause != nil && !errors.Is(err, cause)) {
		t.Fatalf("%s: err = %v, want StageError{%s, %d} caused by %v", name, err, stage, item, cause)
	}
}

// TestOrderedCommitsInOrder: at 1–8 workers, with random item times, every
// item runs once and is committed in index order, within the lookahead.
func TestOrderedCommitsInOrder(t *testing.T) {
	const n = 300
	for workers := 1; workers <= 8; workers++ {
		p := newOrderedProbe(t, workers, n, int64(workers))
		if err := OrderedCtx(context.Background(), "test", workers, n, p.run, p.commit); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p.check(fmt.Sprintf("workers=%d", workers), n)
	}
}

// TestOrderedLowestFailure: items failing in run (an error or a panic) or in
// commit — one or two at once — return the lowest failing item's error,
// with every earlier item committed and no later one; a panic in commit is
// the caller's, raised once the workers are joined.
func TestOrderedLowestFailure(t *testing.T) {
	const n = 120
	boom, late := errors.New("boom"), errors.New("late")
	rng := rand.New(rand.NewSource(1))
	for workers := 1; workers <= 8; workers++ {
		for _, kind := range []string{"run error", "run panic", "commit error", "commit panic"} {
			baseline := runtime.NumGoroutine()
			f := rng.Intn(n - 10)
			name := fmt.Sprintf("workers=%d %s at %d", workers, kind, f)
			p := newOrderedProbe(t, workers, n, int64(f))
			p.failRun, p.failAt = map[int]error{}, map[int]error{}
			cause := boom
			switch kind {
			case "run error":
				p.failRun[f] = boom
			case "run panic":
				p.failRun[f], cause = errPanic, nil
			case "commit error":
				p.failAt[f] = boom
			case "commit panic":
				p.failAt[f], cause = errPanic, nil
			}
			p.failRun[f+1+rng.Intn(8)] = late // a later failure, often in flight
			var err error
			var raised any
			func() {
				defer func() { raised = recover() }()
				err = OrderedCtx(context.Background(), "test", workers, n, p.run, p.commit)
			}()
			upTo := f
			switch kind {
			case "commit error":
				if err != boom {
					t.Fatalf("%s: err = %v, want commit's own error", name, err)
				}
				upTo = f + 1 // item f was committed and failed there
			case "commit panic":
				if raised == nil || !settlesTo(baseline, time.Second) {
					t.Fatalf("%s: raised %v with %d goroutines (%d before), want the panic with every worker joined",
						name, raised, runtime.NumGoroutine(), baseline)
				}
				upTo = f + 1
			default:
				checkStageError(t, name, err, "test", f, cause)
			}
			if kind == "run panic" {
				var pe *fault.PanicError
				var se *fault.StageError
				if !errors.As(err, &pe) || !errors.As(err, &se) || len(se.Stack) == 0 {
					t.Fatalf("%s: err = %v, want a contained panic with its stack", name, err)
				}
			}
			p.check(name, upTo)
		}
	}
}

// TestOrderedInjectedFaultsLandOnTheirItem: an injected error, an injected
// panic and an injected cancel at item f fail item f at every width, with
// items before it committed and no item from f on run.
func TestOrderedInjectedFaultsLandOnTheirItem(t *testing.T) {
	const n = 60
	for workers := 1; workers <= 8; workers++ {
		for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic, faultinject.Cancel} {
			f := (workers*7 + int(action)*5) % (n - 1)
			name := fmt.Sprintf("workers=%d %v at %d", workers, action, f)
			ctx, cancel := context.WithCancel(context.Background())
			in := faultinject.New(faultinject.Rule{Stage: "test", Item: f, Action: action})
			in.BindCancel(cancel)
			deactivate := faultinject.Activate(in)
			p := newOrderedProbe(t, workers, n, int64(f))
			err := OrderedCtx(ctx, "test", workers, n, p.run, p.commit)
			deactivate()
			cancel()
			cause := faultinject.ErrInjected
			if action == faultinject.Cancel {
				cause = context.Canceled
			}
			checkStageError(t, name, err, "test", f, cause)
			p.check(name, f)
			for i := f; i < n; i++ {
				if p.ran[i].Load() != 0 {
					t.Fatalf("%s: item %d ran", name, i)
				}
			}
		}
	}
}

// TestOrderedPreCanceled: a canceled context fails item 0 before anything
// runs; with no items the context error still surfaces.
func TestOrderedPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		p := newOrderedProbe(t, workers, 10, 1)
		err := OrderedCtx(ctx, "test", workers, 10, p.run, p.commit)
		checkStageError(t, fmt.Sprintf("workers=%d", workers), err, "test", 0, context.Canceled)
		p.check(fmt.Sprintf("workers=%d", workers), 0)
	}
	if err := OrderedCtx(ctx, "test", 4, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0: err = %v", err)
	}
	if err := OrderedCtx(context.Background(), "test", 4, 0, nil, nil); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
}

// TestOrderedJoinsOnCancel cancels from inside items, from commits and from
// outside many times at 8 workers: every worker goroutine is joined before
// the pool returns.
func TestOrderedJoinsOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := OrderedCtx(ctx, "leak", 8, 200, func(_, _, i int) error {
			if i == round%64 {
				cancel()
			}
			return nil
		}, func(_, i int) error {
			if i == 100 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
	}
	if !settlesTo(baseline, time.Second) {
		t.Fatalf("goroutines: %d before, %d after", baseline, runtime.NumGoroutine())
	}
}

// TestOrderedSequentialAllocs: at one worker the pool allocates nothing per
// item.
func TestOrderedSequentialAllocs(t *testing.T) {
	run := func(_, _, _ int) error { return nil }
	commit := func(_, _ int) error { return nil }
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := OrderedCtx(context.Background(), "test", 1, n, run, commit); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(1000); many > one {
		t.Fatalf("1000 items allocate %.0f times, 1 item %.0f: something is allocated per item", many, one)
	}
}

// TestOrderedReusesSlots: a worker takes the slot committed last, so only as
// many slots fill as items were ever in flight at once. Here an item ends
// only after the item before it is committed, so beside the workers' running
// items at most one waits for its commit and one is in it.
func TestOrderedReusesSlots(t *testing.T) {
	for _, workers := range []int{2, 4} {
		var committed atomic.Int64
		used := make([]atomic.Bool, Slots(workers))
		err := OrderedCtx(context.Background(), "test", workers, 200, func(_, slot, i int) error {
			used[slot].Store(true)
			for committed.Load() < int64(i) {
				runtime.Gosched()
			}
			return nil
		}, func(_, _ int) error {
			committed.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for s := range used {
			if used[s].Load() {
				n++
			}
		}
		if n > workers+2 {
			t.Fatalf("workers=%d: %d slots filled, want at most %d", workers, n, workers+2)
		}
	}
}
