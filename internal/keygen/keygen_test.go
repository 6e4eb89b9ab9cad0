package keygen

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

func pv(id string, v int64) *relalg.Param {
	return &relalg.Param{ID: id, Orig: v, Value: v, Instantiated: true}
}

func leaf(table string) *relalg.View {
	return &relalg.View{Kind: relalg.LeafView, Table: table, Card: relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
}

func sel(in *relalg.View, pred relalg.Predicate) *relalg.View {
	return &relalg.View{Kind: relalg.SelectView, Pred: pred, Inputs: []*relalg.View{in},
		Card: relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
}

func unary(col string, op relalg.CompareOp, p *relalg.Param) relalg.Predicate {
	return &relalg.UnaryPred{Col: col, Op: op, P: p}
}

// freshPaperDB returns the paper DB with t_fk cleared (the key generator's
// job is to fill it).
func freshPaperDB() *storage.DB {
	db := testutil.PaperDB()
	db.Table("t").SetCol("t_fk", nil)
	return db
}

// paperJoins builds the two JoinCons of Fig. 7 over the fixed non-key data:
// V5 = equi(σ_{s1<3}(S), σ_{t1>2}(T)) with jcc 5, jdc 2, and
// V8 = left_outer(S, σ_{t1-t2>0}(T)) with jcc 5, jdc 3.
func paperJoins() []*genplan.JoinCons {
	j1 := &genplan.JoinCons{
		ID: 0, Query: "q1",
		Spec:      relalg.JoinSpec{Type: relalg.EquiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 3))),
		RightView: sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2))),
		JCC:       5, JDC: 2,
	}
	arith := &relalg.ArithPred{
		Expr: relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}},
		Op:   relalg.OpGt, P: pv("p3", 0),
	}
	j2 := &genplan.JoinCons{
		ID: 1, Query: "q2",
		Spec:      relalg.JoinSpec{Type: relalg.LeftOuterJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  leaf("s"),
		RightView: sel(leaf("t"), arith),
		JCC:       5, JDC: 3,
	}
	return []*genplan.JoinCons{j1, j2}
}

func problemWith(joins []*genplan.JoinCons) *genplan.Problem {
	unit := &genplan.Unit{Table: "t", FKCol: "t_fk", Joins: joins}
	return &genplan.Problem{Schema: testutil.PaperSchema(), Units: []*genplan.Unit{unit}}
}

// checkJoin re-executes a join on the populated database and verifies its
// constrained quantities exactly.
func checkJoin(t *testing.T, db *storage.DB, jc *genplan.JoinCons) {
	t.Helper()
	eng, err := engine.New(db)
	if err != nil {
		t.Fatal(err)
	}
	root := &relalg.View{
		Kind: relalg.JoinView, Join: &jc.Spec,
		Inputs: []*relalg.View{jc.LeftView, jc.RightView},
		Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
	}
	res, err := eng.Execute(&relalg.AQT{Name: "check", Root: root}, false)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[root]
	if jc.JCC != relalg.CardUnknown && st.JCC != jc.JCC {
		t.Errorf("%s: jcc = %d, want %d", jc, st.JCC, jc.JCC)
	}
	if jc.JDC != relalg.CardUnknown && st.JDC != jc.JDC {
		t.Errorf("%s: jdc = %d, want %d", jc, st.JDC, jc.JDC)
	}
}

func TestPopulatePaperExample(t *testing.T) {
	db := freshPaperDB()
	joins := paperJoins()
	st, err := Populate(context.Background(), Config{Seed: 1}, problemWith(joins), db)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("referential integrity: %v", err)
	}
	for _, jc := range joins {
		checkJoin(t, db, jc)
	}
	if st.Partitions == 0 || st.Cells == 0 || st.CPRounds == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
	checkTwoPhase(t, paperModel(t), Config{Seed: 1})
}

func TestPopulateSemiAndAntiConstraints(t *testing.T) {
	// Semi join: jdc only. Anti join (left): jdc only, derived as |V_l|-card.
	db := freshPaperDB()
	jSemi := &genplan.JoinCons{
		ID: 0, Query: "qs",
		Spec:      relalg.JoinSpec{Type: relalg.LeftSemiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  leaf("s"),
		RightView: sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 3))),
		JCC:       relalg.CardUnknown, JDC: 2,
	}
	jAnti := &genplan.JoinCons{
		ID: 1, Query: "qa",
		Spec:      relalg.JoinSpec{Type: relalg.LeftAntiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  leaf("s"),
		RightView: sel(leaf("t"), unary("t1", relalg.OpLe, pv("p2", 1))),
		JCC:       relalg.CardUnknown, JDC: 1,
	}
	joins := []*genplan.JoinCons{jSemi, jAnti}
	if _, err := Populate(context.Background(), Config{Seed: 2}, problemWith(joins), db); err != nil {
		t.Fatal(err)
	}
	for _, jc := range joins {
		checkJoin(t, db, jc)
	}
}

func TestPopulateUnconstrainedUnit(t *testing.T) {
	db := freshPaperDB()
	prob := problemWith(nil)
	prob.Units[0].Joins = nil
	if _, err := Populate(context.Background(), Config{Seed: 3}, prob, db); err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("uniform fill broke integrity: %v", err)
	}
	if got := db.Table("t").Rows(); got != 8 {
		t.Fatalf("rows = %d", got)
	}
}

func TestPopulateResizesUnreachableConstraint(t *testing.T) {
	// jcc larger than the right view is impossible; Section 6 resizes it to
	// the achievable |V̂_r| instead of failing, bounding the error by the
	// input deviation.
	db := freshPaperDB()
	j := &genplan.JoinCons{
		ID: 0, Query: "resized",
		Spec:      relalg.JoinSpec{Type: relalg.EquiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  leaf("s"),
		RightView: sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 3))), // 4 rows
		JCC:       7, JDC: relalg.CardUnknown,
	}
	st, err := Populate(context.Background(), Config{Seed: 1}, problemWith([]*genplan.JoinCons{j}), db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resized != 1 {
		t.Fatalf("resized = %d, want 1", st.Resized)
	}
	// The populated join must achieve the resized value: all 4 right rows
	// matched (left view is the whole table).
	j.JCC = 4
	checkJoin(t, db, j)
}

func TestPopulateConflictingJoinsInfeasible(t *testing.T) {
	// Two contradictory constraints over the same views: the same 3-row
	// right view must match 3 rows against the whole table and 0 rows
	// against the whole table. No resize can fix a cross-join conflict.
	db := freshPaperDB()
	right := func() *relalg.View { return sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 3))) }
	j1 := &genplan.JoinCons{
		ID: 0, Query: "c1",
		Spec:     relalg.JoinSpec{Type: relalg.LeftSemiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView: leaf("s"), RightView: right(),
		JCC: relalg.CardUnknown, JDC: 4,
	}
	j2 := &genplan.JoinCons{
		ID: 1, Query: "c2",
		Spec:     relalg.JoinSpec{Type: relalg.LeftSemiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView: leaf("s"), RightView: right(),
		JCC: relalg.CardUnknown, JDC: 1,
	}
	st, err := Populate(context.Background(), Config{Seed: 1}, problemWith([]*genplan.JoinCons{j1, j2}), db)
	if err != nil {
		t.Fatalf("contradictory JDCs should degrade to the nearest achievable window, got error: %v", err)
	}
	if st.Resized == 0 {
		t.Fatal("contradictory JDCs must be recorded as resized constraints")
	}
	// The single shared fk stream has one distinct count; it must land
	// within the contradictory targets [1, 4].
	eng, _ := engine.New(db)
	root := &relalg.View{
		Kind: relalg.JoinView, Join: &j1.Spec,
		Inputs: []*relalg.View{j1.LeftView, j1.RightView},
		Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
	}
	res, err := eng.Execute(&relalg.AQT{Name: "chk", Root: root}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats[root].JDC; got < 1 || got > 4 {
		t.Fatalf("achieved jdc = %d, want within the contradictory window [1,4]", got)
	}
}

func TestTooManyJoinsRejected(t *testing.T) {
	db := freshPaperDB()
	joins := make([]*genplan.JoinCons, 65)
	for i := range joins {
		joins[i] = &genplan.JoinCons{
			ID:        i,
			Spec:      relalg.JoinSpec{Type: relalg.EquiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
			LeftView:  leaf("s"),
			RightView: leaf("t"),
			JCC:       8, JDC: relalg.CardUnknown,
		}
	}
	_, err := Populate(context.Background(), Config{}, problemWith(joins), db)
	if err == nil || !strings.Contains(err.Error(), "64-bit") {
		t.Fatalf("err = %v, want status-vector overflow", err)
	}
}

func TestPartitioning(t *testing.T) {
	masks := []uint64{3, 1, 3, 0, 1}
	parts := partition(masks)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	if parts[0].mask != 0 || parts[1].mask != 1 || parts[2].mask != 3 {
		t.Fatalf("partition masks = %d,%d,%d", parts[0].mask, parts[1].mask, parts[2].mask)
	}
	if len(parts[1].rows) != 2 || parts[1].rows[0] != 1 || parts[1].rows[1] != 4 {
		t.Fatalf("mask-1 rows = %v", parts[1].rows)
	}
}

// partitionByRow is partition as it was before it looked parts up per mask
// run and counted before filling — one map lookup and one append per row —
// kept as TestPartitionOrder's reference.
func partitionByRow(masks []uint64) []*part {
	byMask := make(map[uint64]*part)
	var order []uint64
	for r, mk := range masks {
		p, ok := byMask[mk]
		if !ok {
			p = &part{mask: mk}
			byMask[mk] = p
			order = append(order, mk)
		}
		p.rows = append(p.rows, int32(r))
	}
	slices.Sort(order)
	out := make([]*part, 0, len(order))
	for _, mk := range order {
		out = append(out, byMask[mk])
	}
	return out
}

// TestPartitionOrder pins partition's output — ascending masks, ascending
// rows inside each part — to the row-at-a-time reference on random mask
// vectors: long runs (what status vectors look like), short runs, every row
// its own part, one part, and none.
func TestPartitionOrder(t *testing.T) {
	cases := []struct {
		name    string
		rows    int
		masks   int  // distinct mask values drawn from
		meanRun int  // expected run length of equal masks
		highBit bool // odd masks also carry bit 63
	}{
		{name: "empty"},
		{name: "one row", rows: 1, masks: 1, meanRun: 1},
		{name: "one part", rows: 1000, masks: 1, meanRun: 1},
		{name: "long runs", rows: 20000, masks: 9, meanRun: 500},
		{name: "short runs", rows: 5000, masks: 4, meanRun: 2},
		{name: "no runs", rows: 3000, masks: 64, meanRun: 1},
		{name: "all distinct", rows: 500, masks: 1 << 20, meanRun: 1},
		{name: "bit 63 set", rows: 4000, masks: 7, meanRun: 30, highBit: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.rows)*31 + int64(tc.masks)))
			masks := make([]uint64, tc.rows)
			var cur uint64
			for r := range masks {
				if r == 0 || rng.Intn(tc.meanRun) == 0 {
					cur = uint64(rng.Intn(tc.masks))
					if tc.highBit && cur%2 == 1 {
						cur |= 1 << 63
					}
				}
				masks[r] = cur
			}
			got, want := partition(masks), partitionByRow(masks)
			if len(got) != len(want) {
				t.Fatalf("%d parts, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].mask != want[i].mask {
					t.Fatalf("part %d: mask %#x, want %#x", i, got[i].mask, want[i].mask)
				}
				if !slices.Equal(got[i].rows, want[i].rows) {
					t.Fatalf("part %d (mask %#x): rows differ from the reference", i, got[i].mask)
				}
				if cap(got[i].rows) != len(got[i].rows) {
					t.Errorf("part %d: cap %d for %d rows, want exact size", i, cap(got[i].rows), len(got[i].rows))
				}
			}
		})
	}
}

func TestVirtualJoinConstraint(t *testing.T) {
	// A PCC converted to a JDC on a virtual right-semi join: exactly 2
	// distinct fks among σ_{t1>2}(T) rows.
	db := freshPaperDB()
	j := &genplan.JoinCons{
		ID: 0, Query: "pcc", Virtual: true,
		Spec:      relalg.JoinSpec{Type: relalg.RightSemiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
		LeftView:  leaf("s"),
		RightView: sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 2))), // 6 rows
		JCC:       6, JDC: 2,
	}
	if _, err := Populate(context.Background(), Config{Seed: 4}, problemWith([]*genplan.JoinCons{j}), db); err != nil {
		t.Fatal(err)
	}
	checkJoin(t, db, j)
}
