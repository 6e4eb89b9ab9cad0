package keygen

// Tests for the vectorized local-search repair loop: the incremental error
// bookkeeping must agree with a from-scratch recompute after arbitrary move
// sequences, speculative move scoring must match the actual effect of the
// move, and the steady-state repair path must run allocation-free — the
// AllocsPerRun pin that keeps the PR's vectorization honest.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

// paperModel builds the paper-example unit's kgModel for white-box tests.
func paperModel(t testing.TB) *kgModel {
	t.Helper()
	return unitModel(t, testutil.PaperDB(), paperJoins())
}

// unitModel builds the kgModel populateUnit would build for joins on db,
// except that no join is dropped as implied or duplicate.
func unitModel(t testing.TB, db *storage.DB, joins []*genplan.JoinCons) *kgModel {
	t.Helper()
	eng, err := engine.New(db)
	if err != nil {
		t.Fatal(err)
	}
	spec := joins[0].Spec
	sRows, tRows := db.Table(spec.PKTable).Rows(), db.Table(spec.FKTable).Rows()
	sMask := make([]uint64, sRows)
	tMask := make([]uint64, tRows)
	rset := make([]int64, len(joins))
	lset := make([]int64, len(joins))
	for k, jc := range joins {
		ls, err := eng.CollectRows(jc.LeftView, jc.Spec.PKTable, false)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := eng.CollectRows(jc.RightView, jc.Spec.FKTable, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ls {
			sMask[r] |= 1 << uint(k)
		}
		for _, r := range rs {
			tMask[r] |= 1 << uint(k)
		}
		rset[k] = int64(len(rs))
		lset[k] = int64(len(ls))
	}
	njcc, njdc := resizeConstraints(&Stats{}, joins, lset, rset, int64(sRows))
	return buildModel(joins, partition(sMask, 1), partition(tMask, 1), njcc, njdc)
}

// checkTwoPhase solves kg and asserts what populateFKs relies on in the
// result: per cell 0 ≤ f ≤ d ≤ x, x > 0 ⇒ d > 0, d ≤ |S_i| and no fresh key
// outside a JDC join; exact coverage per T partition; and, per S partition,
// fresh keys within |S_i| for each connected component of overlapping JDC
// masks (components never meet in a join, so allocateKeys lets their key
// ranges alias). The join sums are not re-checked: residual clamping may
// have relaxed them, and checkJoin covers them end to end.
func checkTwoPhase(t testing.TB, kg *kgModel, cfg Config) {
	t.Helper()
	sol, err := kg.solveTwoPhase(context.Background(), cfg, nil, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range kg.cells {
		x, d, f := sol.x[ci], sol.d[ci], sol.f[ci]
		supply := int64(len(kg.sParts[c.si].rows))
		if f < 0 || f > d || d > x || (x > 0 && d == 0) || d > supply || (c.jdcMask == 0 && f != 0) {
			t.Fatalf("cell %d (S_%d,T_%d): x=%d d=%d f=%d, |S_i|=%d, jdcMask=%b", ci, c.si, c.tj, x, d, f, supply, c.jdcMask)
		}
	}
	for j, tp := range kg.tParts {
		var sum int64
		for _, ci := range kg.byT[j] {
			sum += sol.x[ci]
		}
		if sum != int64(len(tp.rows)) {
			t.Fatalf("T_%d: cells cover %d of %d rows", j, sum, len(tp.rows))
		}
	}
	for i, sp := range kg.sParts {
		var masks []uint64
		for _, ci := range kg.byS[i] {
			if m := kg.cells[ci].jdcMask; m != 0 && !slices.Contains(masks, m) {
				masks = append(masks, m)
			}
		}
		comp := componentsOf(masks)
		fresh := make(map[int]int64)
		for _, ci := range kg.byS[i] {
			if m := kg.cells[ci].jdcMask; m != 0 {
				fresh[comp[m]] += sol.f[ci]
			}
		}
		for _, n := range fresh {
			if n > int64(len(sp.rows)) {
				t.Fatalf("S_%d: %d fresh keys in one component, supply %d", i, n, len(sp.rows))
			}
		}
	}
}

// newTestState builds a cold repair state over the paper model.
func newTestState(t testing.TB, seed int64) *repairState {
	t.Helper()
	return newModelState(paperModel(t), seed)
}

// newModelState builds a cold repair state over kg, with solveX's targets.
func newModelState(kg *kgModel, seed int64) *repairState {
	targets := make([]xTarget, len(kg.joins))
	for k := range kg.joins {
		switch {
		case kg.njcc[k] != unknownCard:
			targets[k] = xTarget{value: kg.njcc[k], exact: true}
		case kg.njdc[k] != unknownCard:
			targets[k] = xTarget{value: kg.njdc[k], exact: false}
		}
	}
	st := kg.newRepairState(targets)
	st.rng = rand.New(rand.NewSource(seed))
	st.initProportional()
	return st
}

// totalErr recomputes the aggregate error from the per-join sums; repair
// reads st.curErr instead.
func (st *repairState) totalErr() int64 {
	var e int64
	for k := range st.kg.joins {
		e += st.errAt(k, st.inSum[k], st.capIn[k])
	}
	return e
}

// TestIncrementalBookkeepingMatchesRecompute: after a random walk of applied
// moves, the incrementally maintained sums and error must equal a full
// recompute.
func TestIncrementalBookkeepingMatchesRecompute(t *testing.T) {
	st := newTestState(t, 7)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 500; step++ {
		j := rng.Intn(len(st.kg.tParts))
		cells := st.kg.byT[j]
		if len(cells) < 2 {
			continue
		}
		from := cells[rng.Intn(len(cells))]
		to := cells[rng.Intn(len(cells))]
		if from == to || st.x[from] == 0 {
			continue
		}
		st.apply(from, to, rng.Int63n(st.x[from])+1)
	}
	gotErr := st.curErr
	gotIn := append([]int64(nil), st.inSum...)
	gotCap := append([]int64(nil), st.capIn...)
	gotBy := append([]int64(nil), st.errByJoin...)
	st.recompute()
	if st.curErr != gotErr {
		t.Fatalf("incremental curErr %d != recomputed %d", gotErr, st.curErr)
	}
	for k := range st.inSum {
		if gotIn[k] != st.inSum[k] || gotCap[k] != st.capIn[k] || gotBy[k] != st.errByJoin[k] {
			t.Fatalf("join %d: incremental (in=%d cap=%d err=%d) != recomputed (in=%d cap=%d err=%d)",
				k, gotIn[k], gotCap[k], gotBy[k], st.inSum[k], st.capIn[k], st.errByJoin[k])
		}
	}
	if st.totalErr() != st.curErr {
		t.Fatalf("totalErr %d != curErr %d", st.totalErr(), st.curErr)
	}
}

// TestMoveGainMatchesApply: the speculative gain of a move must equal the
// actual error delta when the move is applied, on the paper model and on
// random x-systems — whose moves include pairs of cells sharing a join with
// a distinct requirement (whose capacity moves) and sharing one without
// (whose error cannot move), the two cases moveGain treats apart.
func TestMoveGainMatchesApply(t *testing.T) {
	states := []*repairState{newTestState(t, 11)}
	models := rand.New(rand.NewSource(23))
	for range 120 {
		states = append(states, newModelState(randomXModel(models), 11))
	}
	rng := rand.New(rand.NewSource(5))
	checked, sharedJDC, sharedPlain := 0, 0, 0
	for _, st := range states {
		for step, n := 0, 0; step < 2000 && n < 200; step++ {
			j := rng.Intn(len(st.kg.tParts))
			cells := st.kg.byT[j]
			if len(cells) < 2 {
				continue
			}
			from := cells[rng.Intn(len(cells))]
			to := cells[rng.Intn(len(cells))]
			if from == to || st.x[from] == 0 {
				continue
			}
			amt := rng.Int63n(st.x[from]) + 1
			gain := st.moveGain(from, to, amt)
			before := st.curErr
			st.apply(from, to, amt)
			if got := before - st.curErr; got != gain {
				t.Fatalf("move (%d→%d, %d): moveGain %d but applied delta %d", from, to, amt, gain, got)
			}
			shared := st.cellMask[from] & st.cellMask[to]
			if shared&st.jdcMask != 0 {
				sharedJDC++
			}
			if shared&^st.jdcMask != 0 {
				sharedPlain++
			}
			n++
			checked++
		}
	}
	if checked == 0 || sharedJDC == 0 || sharedPlain == 0 {
		t.Fatalf("moves exercised: %d, sharing a join with a distinct requirement: %d, sharing one without: %d", checked, sharedJDC, sharedPlain)
	}
}

// TestRepairSteadyStateAllocs pins the vectorized repair loop at zero
// steady-state allocations: warm start + full repair over a preallocated
// state must not allocate, on the paper model and on a random x-system whose
// repair ends frozen (so the frozen check runs inside the measured loop).
func TestRepairSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	var stuck *repairState
	rng := rand.New(rand.NewSource(17))
	for stuck == nil {
		st := newModelState(randomXModel(rng), 3)
		if st.repair(ctx); st.frozenExits > 0 {
			stuck = st
		}
	}
	for name, st := range map[string]*repairState{"paper": newTestState(t, 3), "frozen": stuck} {
		warm := append([]int64(nil), st.x...)
		st.repair(ctx) // warm the scratch buffers (violatedBuf/partsBuf/cellsBuf)
		exits := st.frozenExits
		allocs := testing.AllocsPerRun(10, func() {
			st.warmStart(warm)
			st.repair(ctx)
		})
		if allocs > 0 {
			t.Fatalf("%s: repair loop allocates %.1f times per run, want 0", name, allocs)
		}
		if name == "frozen" && st.frozenExits == exits {
			t.Fatalf("%s: no measured repair ended frozen", name)
		}
	}
}

// TestWarmStartPreservesCoverage: the perturbation must keep every T
// partition's total mass intact — coverage is the invariant local search
// never breaks.
func TestWarmStartPreservesCoverage(t *testing.T) {
	st := newTestState(t, 13)
	want := make([]int64, len(st.kg.tParts))
	for j := range st.kg.tParts {
		for _, ci := range st.kg.byT[j] {
			want[j] += st.x[ci]
		}
	}
	warm := append([]int64(nil), st.x...)
	for trial := 0; trial < 20; trial++ {
		st.rng = rand.New(rand.NewSource(int64(trial)))
		st.warmStart(warm)
		for j := range st.kg.tParts {
			var got int64
			for _, ci := range st.kg.byT[j] {
				got += st.x[ci]
			}
			if got != want[j] {
				t.Fatalf("trial %d: partition %d mass %d, want %d", trial, j, got, want[j])
			}
		}
	}
}

// referenceRepair is the repair loop without the frozen exit: every attempt
// runs until its error reaches 0 or its stale or iteration limit ends it.
// TestFrozenExitMatchesReference holds repair to it.
func referenceRepair(st *repairState, ctx context.Context) int64 {
	nCells := len(st.kg.cells)
	cur := st.curErr
	best := cur
	bestX := st.bestXBuf
	copy(bestX, st.x)
	stale := 0
	maxIters := 40*nCells + 40000
	if maxIters > 400_000 {
		maxIters = 400_000
	}
	for iter := 0; iter < maxIters && cur > 0 && stale < 3000; iter++ {
		if iter%1024 == 1023 && ctx.Err() != nil {
			break
		}
		k := st.pickViolated()
		if k == -1 {
			break
		}
		from, to, amt := st.pickMove(k)
		if from < 0 {
			stale++
			continue
		}
		st.apply(from, to, amt)
		cur = st.curErr
		if cur < best {
			best, stale = cur, 0
			copy(bestX, st.x)
		} else {
			stale++
		}
	}
	copy(st.x, bestX)
	st.recompute()
	return best
}

// randomXModel draws a unit's x-system: up to 4 joins, S and T partitions
// with random join masks and sizes, and per join an exact JCC target, a JDC
// lower bound, both or neither, drawn so that some systems are feasible and
// many are not.
func randomXModel(rng *rand.Rand) *kgModel {
	return randomXModelUpTo(rng, 4, 6, 8)
}

// randomXModelUpTo is randomXModel with up to joins joins, nS S partitions
// and nT T partitions. Systems of up to 6 joins, 16 S and 24 T partitions
// are large enough that a later attempt sometimes improves on attempt 0,
// which randomXModel's never do.
func randomXModelUpTo(rng *rand.Rand, joins, nS, nT int) *kgModel {
	nJoins := 1 + rng.Intn(joins)
	parts := func(n, maxRows int) []*part {
		ps := make([]*part, n)
		for i := range ps {
			ps[i] = &part{mask: uint64(rng.Intn(1 << uint(nJoins))), rows: make([]int32, 1+rng.Intn(maxRows))}
		}
		return ps
	}
	sParts, tParts := parts(1+rng.Intn(nS), 12), parts(1+rng.Intn(nT), 40)
	njcc := make([]int64, nJoins)
	njdc := make([]int64, nJoins)
	for k := range nJoins {
		var tIn, sIn int64
		for _, tp := range tParts {
			if bit(tp, k) {
				tIn += int64(len(tp.rows))
			}
		}
		for _, sp := range sParts {
			if bit(sp, k) {
				sIn += int64(len(sp.rows))
			}
		}
		njcc[k], njdc[k] = relalg.CardUnknown, relalg.CardUnknown
		if rng.Intn(4) != 0 {
			njcc[k] = rng.Int63n(tIn + 2)
		}
		if rng.Intn(2) == 0 {
			njdc[k] = rng.Int63n(sIn + 2)
		}
	}
	return buildModel(make([]*genplan.JoinCons, nJoins), sParts, tParts, njcc, njdc)
}

// anyMove reports whether pickMove returns a move for some violated join
// under some of 24 rng seeds. On a unit small enough that pickMove samples
// nothing (at most 24 T partitions and 16 S partitions), a candidate with
// gain > 0 is returned on every seed and a zero-gain one on each seed's coin
// flip, so anyMove then answers "is a move left" unless 24 flips all fail.
// st.rng is restored.
func anyMove(st *repairState) bool {
	saved := st.rng
	defer func() { st.rng = saved }()
	for seed := int64(0); seed < 24; seed++ {
		st.rng = rand.New(rand.NewSource(seed))
		for k, e := range st.errByJoin {
			if e == 0 {
				continue
			}
			if from, _, _ := st.pickMove(k); from >= 0 {
				return true
			}
		}
	}
	return false
}

// TestFrozenExitMatchesReference is the frozen exit's differential oracle:
// on random x-systems and the paper model, at several seeds, solveXLocal's
// attempts with the exit must return exactly what referenceRepair's do —
// the same x, residuals, attempt count and best error per attempt — and the
// exit must fire often enough for that to mean something. At the start and
// end of every attempt, frozen must also agree with anyMove: the end states
// are where plateau-only neighbourhoods show up, the start states (cold or
// warm, before any repair) where capacity-only ones do.
func TestFrozenExitMatchesReference(t *testing.T) {
	agree := func(st *repairState, when string) {
		if frozen, open := st.frozen(), anyMove(st); frozen == open {
			t.Fatalf("%s an attempt: frozen()=%v but pickMove finds a move=%v, x=%v", when, frozen, open, st.x)
		}
	}
	solve := func(kg *kgModel, seed int64, repair func(*repairState, context.Context) int64, check bool) *xSolve {
		r, err := kg.solveX(context.Background(), Config{Seed: seed}, nil,
			func(st *repairState, ctx context.Context) int64 {
				if check {
					agree(st, "at the start of")
				}
				e := repair(st, ctx)
				if check {
					agree(st, "at the end of")
				}
				return e
			})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rng := rand.New(rand.NewSource(17))
	models := []*kgModel{paperModel(t)}
	for range 120 {
		models = append(models, randomXModel(rng))
	}
	fired, instances := 0, 0
	for i, kg := range models {
		if len(kg.tParts) > 24 || len(kg.sParts) > 16 {
			t.Fatalf("model %d: %d T and %d S partitions, too many for pickMove to see every candidate", i, len(kg.tParts), len(kg.sParts))
		}
		for seed := int64(1); seed <= 3; seed++ {
			got := solve(kg, seed, (*repairState).repair, true)
			want := solve(kg, seed, referenceRepair, false)
			if !slices.Equal(got.x, want.x) || !slices.Equal(got.residual, want.residual) || !slices.Equal(got.errs, want.errs) {
				t.Fatalf("model %d seed %d: with the exit x=%v residual=%v best=%v; reference x=%v residual=%v best=%v",
					i, seed, got.x, got.residual, got.errs, want.x, want.residual, want.errs)
			}
			instances++
			if got.frozenExits > 0 {
				fired++
			}
		}
	}
	t.Logf("frozen exit fired on %d of %d instances", fired, instances)
	if fired == 0 {
		t.Fatal("the frozen exit never fired: the oracle compared nothing it changes")
	}
}

// TestSpeculativeAttemptsMatchSequential: solveX with spare workers must
// commit exactly the attempts the sequential loop does — the same x,
// residuals, per-attempt best errors and frozen exits — on the paper model
// and on random x-systems at several seeds, with 1, 3 and 7 spare workers,
// and hand every worker back. Across the instances some attempts that ran
// ahead must have been committed and some thrown away (the larger systems
// are there for that), or the comparison proved nothing.
func TestSpeculativeAttemptsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []*kgModel{paperModel(t)}
	for range 120 {
		models = append(models, randomXModel(rng))
	}
	for range 40 {
		models = append(models, randomXModelUpTo(rng, 6, 16, 24))
	}
	ctx := context.Background()
	ahead, discarded := 0, 0
	for i, kg := range models {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := Config{Seed: seed}
			want, err := kg.solveXLocal(ctx, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.ahead != 0 || want.discarded != 0 || want.helperTime != 0 {
				t.Fatalf("model %d seed %d: no spare worker, yet %d attempts ran ahead, %d were discarded, helpers ran %v",
					i, seed, want.ahead, want.discarded, want.helperTime)
			}
			for _, helpers := range []int{1, 3, 7} {
				pool := &spares{}
				pool.put(helpers)
				got, err := kg.solveXLocal(ctx, cfg, pool)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.x, want.x) || !slices.Equal(got.residual, want.residual) ||
					!slices.Equal(got.errs, want.errs) || got.frozenExits != want.frozenExits {
					t.Fatalf("model %d seed %d, %d helpers: x=%v residual=%v best=%v frozen=%d; sequential x=%v residual=%v best=%v frozen=%d",
						i, seed, helpers, got.x, got.residual, got.errs, got.frozenExits, want.x, want.residual, want.errs, want.frozenExits)
				}
				if n := pool.n.Load(); n != int64(helpers) {
					t.Fatalf("model %d seed %d: %d of %d spare workers handed back", i, seed, n, helpers)
				}
				ahead += got.ahead
				discarded += got.discarded
			}
		}
	}
	t.Logf("%d attempts that ran ahead committed, %d discarded", ahead, discarded)
	if ahead == 0 || discarded == 0 {
		t.Fatalf("%d attempts that ran ahead committed and %d discarded: want both", ahead, discarded)
	}
}

// TestSpeculativeAttemptsCancel: cancelling solveX while spare workers run
// attempts returns the context's error, and only once every attempt has
// returned, every spare worker is back in the pool and every goroutine
// solveX started has exited.
func TestSpeculativeAttemptsCancel(t *testing.T) {
	kg := paperModel(t)
	const helpers = 3
	pool := &spares{}
	pool.put(helpers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	var calls, running atomic.Int64
	all := make(chan struct{})
	repair := func(st *repairState, ctx context.Context) int64 {
		running.Add(1)
		defer running.Add(-1)
		switch calls.Add(1) {
		case 1:
			return 1 // attempt 0: leave a nonzero error so attempts go on
		case 2 + helpers:
			close(all) // attempt 1 and the helpers' attempts are all running
		}
		<-ctx.Done()
		return 1
	}
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		<-all
		cancel()
	}()
	_, err := kg.solveX(ctx, Config{Seed: 1}, pool, repair)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d attempts still running after solveX returned", n)
	}
	if n := pool.n.Load(); n != helpers {
		t.Fatalf("%d of %d spare workers handed back", n, helpers)
	}
	<-cancelled
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before solveX", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestSpeculativeAttemptPanicSurfaces: a panic in an attempt a spare worker
// runs is raised again on solveX's goroutine, where the keygen wave's
// worker pool contains it, after every attempt has been joined.
func TestSpeculativeAttemptPanicSurfaces(t *testing.T) {
	kg := paperModel(t)
	pool := &spares{}
	pool.put(2)
	ctx := context.Background()
	var running atomic.Int64
	repair := func(st *repairState, actx context.Context) int64 {
		running.Add(1)
		defer running.Add(-1)
		if actx != ctx {
			panic("boom") // only spare workers run under their own context
		}
		return 1
	}
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the spare worker's panic", p)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d attempts still running after the panic", n)
		}
		if n := pool.n.Load(); n != 2 {
			t.Fatalf("%d of 2 spare workers handed back", n)
		}
	}()
	kg.solveX(ctx, Config{Seed: 1}, pool, repair)
	t.Fatal("solveX returned")
}
