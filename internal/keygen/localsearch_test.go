package keygen

// Tests for the vectorized local-search repair loop: the incremental error
// bookkeeping must agree with a from-scratch recompute after arbitrary move
// sequences, speculative move scoring must match the actual effect of the
// move, and the steady-state repair path must run allocation-free — the
// AllocsPerRun pin that keeps the PR's vectorization honest.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
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
	sol, _, _, err := kg.solveTwoPhase(context.Background(), cfg)
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
	kg := paperModel(t)
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
	st.initProportional(0)
	return st
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
// actual error delta when the move is applied.
func TestMoveGainMatchesApply(t *testing.T) {
	st := newTestState(t, 11)
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for step := 0; step < 2000 && checked < 200; step++ {
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
		checked++
	}
	if checked == 0 {
		t.Fatal("no moves exercised")
	}
}

// TestRepairSteadyStateAllocs pins the vectorized repair loop at zero
// steady-state allocations: warm start + full repair over a preallocated
// state must not allocate.
func TestRepairSteadyStateAllocs(t *testing.T) {
	st := newTestState(t, 3)
	warm := append([]int64(nil), st.x...)
	ctx := context.Background()
	st.repair(ctx) // warm the scratch buffers (violatedBuf/partsBuf/cellsBuf)
	allocs := testing.AllocsPerRun(10, func() {
		st.warmStart(warm)
		st.repair(ctx)
	})
	if allocs > 0 {
		t.Fatalf("repair loop allocates %.1f times per run, want 0", allocs)
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
