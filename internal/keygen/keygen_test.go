package keygen

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/obs"
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

// partitionOf is partition at width 1 on a context that is never cancelled.
func partitionOf(t testing.TB, masks []uint64) []*part {
	t.Helper()
	parts, err := partition(context.Background(), masks, 1)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func TestPartitioning(t *testing.T) {
	masks := []uint64{3, 1, 3, 0, 1}
	parts := partitionOf(t, masks)
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
// vectors, at widths 1–4: long runs (what status vectors look like), short
// runs, every row its own part, one part, and none.
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
		{name: "long runs, four ranges", rows: 4*partitionRangeRows + 77, masks: 9, meanRun: 500},
		{name: "short runs, two ranges", rows: 2*partitionRangeRows + 5, masks: 4, meanRun: 2},
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
			want := partitionByRow(masks)
			for width := 1; width <= 4; width++ {
				got, err := partition(context.Background(), masks, width)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("width %d: %d parts, want %d", width, len(got), len(want))
				}
				for i := range want {
					if got[i].mask != want[i].mask {
						t.Fatalf("width %d: part %d: mask %#x, want %#x", width, i, got[i].mask, want[i].mask)
					}
					if !slices.Equal(got[i].rows, want[i].rows) {
						t.Fatalf("width %d: part %d (mask %#x): rows differ from the reference", width, i, got[i].mask)
					}
					if cap(got[i].rows) != len(got[i].rows) {
						t.Errorf("width %d: part %d: cap %d for %d rows, want exact size", width, i, cap(got[i].rows), len(got[i].rows))
					}
				}
			}
		})
	}
}

// TestPartitionCancel: a cancel landing on the first range of partition's
// counting pass comes back as a wrapped context.Canceled from stage
// keygen/partition before the filling pass starts, and the range that ran
// is counted in the registry on the context.
func TestPartitionCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	in := faultinject.New(faultinject.Rule{Stage: "keygen/partition", Item: 0, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	deactivate := faultinject.Activate(in)
	parts, err := partition(ctx, make([]uint64, 2*partitionRangeRows), 2)
	deactivate()
	var se *fault.StageError
	if parts != nil || !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Stage != "keygen/partition" {
		t.Fatalf("parts %v, err = %v, want none and a StageError at keygen/partition wrapping context.Canceled", parts, err)
	}
	if got := reg.CounterL("parallel_items_total", "stage", "keygen/partition").Value(); got < 1 || got > 2 {
		t.Fatalf("parallel_items_total{stage=keygen/partition} = %d, want the counting pass's ranges that ran", got)
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

// foldSets builds status masks over n rows from row sets, set k on bit k.
func foldSets(n int, sets ...[]int32) []uint64 {
	masks := make([]uint64, n)
	for k, rows := range sets {
		for _, r := range rows {
			masks[r] |= 1 << uint(k)
		}
	}
	return masks
}

// TestDedupJoinsExact folds four joins: j1 differs from j0, j2 has j0's rows
// and constraints, j3 has j0's constraints and set lengths but other rows.
// Exactly j2 goes, and the renumbered, re-sorted parts are those of folding
// j0, j1 and j3 alone — in particular a row in j0 and j2 but not j1 (mask
// 0b0101) sorts before one in j1 only (0b0010) once j2's bit is gone.
func TestDedupJoinsExact(t *testing.T) {
	jc := func(jcc, jdc int64) *genplan.JoinCons { return &genplan.JoinCons{JCC: jcc, JDC: jdc} }
	joins := []*genplan.JoinCons{jc(4, 2), jc(3, relalg.CardUnknown), jc(4, 2), jc(4, 2)}
	lsets := [][]int32{{0, 1}, {1, 2, 3}, {0, 1}, {2, 3}}
	rsets := [][]int32{{0, 2, 5}, {1, 4}, {0, 2, 5}, {0, 3, 5}}
	sParts := partitionOf(t, foldSets(4, lsets...))
	tParts := partitionOf(t, foldSets(6, rsets...))
	kept := dedupJoins(joins, sParts, tParts)
	if !slices.Equal(kept, []int{0, 1, 3}) {
		t.Fatalf("kept joins %v, want [0 1 3]", kept)
	}
	for _, c := range []struct {
		name      string
		got, want []*part
	}{
		{"S", sParts, partitionOf(t, foldSets(4, lsets[0], lsets[1], lsets[3]))},
		{"T", tParts, partitionOf(t, foldSets(6, rsets[0], rsets[1], rsets[3]))},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d parts, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i].mask != c.want[i].mask || !slices.Equal(c.got[i].rows, c.want[i].rows) {
				t.Errorf("%s part %d: mask %#b rows %v, want mask %#b rows %v", c.name, i,
					c.got[i].mask, c.got[i].rows, c.want[i].mask, c.want[i].rows)
			}
		}
	}

	// Different constraints keep a join with the same rows.
	joins[2] = jc(5, 2)
	sParts = partitionOf(t, foldSets(4, lsets...))
	tParts = partitionOf(t, foldSets(6, rsets...))
	if kept := dedupJoins(joins, sParts, tParts); !slices.Equal(kept, []int{0, 1, 2, 3}) {
		t.Fatalf("kept joins %v, want all four", kept)
	}
}

// TestPopulateDropsOnlyDuplicateJoins populates the paper database under
// three joins: j1 repeats j0's views (as new view objects) and constraints,
// j2 has j0's constraints and input-view lengths — two S rows, seven T rows —
// but other rows. Every constraint must hold, j2's included, and the column
// must be the one populated without j1.
func TestPopulateDropsOnlyDuplicateJoins(t *testing.T) {
	mk := func(id int, sOp relalg.CompareOp, s int64, tCol string, tOp relalg.CompareOp, tv int64) *genplan.JoinCons {
		return &genplan.JoinCons{
			ID:        id,
			Spec:      relalg.JoinSpec{Type: relalg.EquiJoin, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
			LeftView:  sel(leaf("s"), unary("s1", sOp, pv("ps", s))),
			RightView: sel(leaf("t"), unary(tCol, tOp, pv("pt", tv))),
			JCC:       4, JDC: 1,
		}
	}
	j0 := mk(0, relalg.OpLe, 2, "t1", relalg.OpLe, 4) // S rows 0,1; T rows 0-4,6,7
	j1 := mk(1, relalg.OpLe, 2, "t1", relalg.OpLe, 4)
	j2 := mk(2, relalg.OpGe, 3, "t2", relalg.OpGe, 2) // S rows 2,3; T rows 0-2,4-7
	run := func(joins ...*genplan.JoinCons) []int64 {
		t.Helper()
		db := freshPaperDB()
		if _, err := Populate(context.Background(), Config{Seed: 5}, problemWith(joins), db); err != nil {
			t.Fatal(err)
		}
		for _, jc := range joins {
			checkJoin(t, db, jc)
		}
		return db.Table("t").Col("t_fk")
	}
	with, without := run(j0, j1, j2), run(j0, j2)
	if !slices.Equal(with, without) {
		t.Fatalf("t_fk = %v with the duplicate join, %v without", with, without)
	}
}

// TestUniformFillStreamsPerUnit populates two unconstrained FK columns whose
// names have the same length, t.t_fk and u.u_fk, both into s: each unit must
// draw its own stream. Seeding by the column name's length once made u_fk a
// copy of t_fk, row for row.
func TestUniformFillStreamsPerUnit(t *testing.T) {
	table := func(name string, rows int64, refs string) *relalg.Table {
		tb := &relalg.Table{Name: name, Rows: rows, Columns: []relalg.Column{{Name: name + "_pk", Kind: relalg.PrimaryKey}}}
		if refs != "" {
			tb.Columns = append(tb.Columns, relalg.Column{Name: name + "_fk", Kind: relalg.ForeignKey, Refs: refs})
		}
		return tb
	}
	schema := &relalg.Schema{Tables: []*relalg.Table{table("s", 50, ""), table("t", 2000, "s"), table("u", 2000, "s")}}
	prob := &genplan.Problem{Schema: schema, Units: []*genplan.Unit{{Table: "t", FKCol: "t_fk"}, {Table: "u", FKCol: "u_fk"}}}
	populate := func() (tfk, ufk []int64) {
		db := storage.NewDB(schema)
		if _, err := Populate(context.Background(), Config{Seed: 3}, prob, db); err != nil {
			t.Fatal(err)
		}
		if err := db.Check(); err != nil {
			t.Fatalf("referential integrity: %v", err)
		}
		return db.Table("t").Col("t_fk"), db.Table("u").Col("u_fk")
	}
	tfk, ufk := populate()
	same := 0
	for i := range tfk {
		if tfk[i] == ufk[i] {
			same++
		}
	}
	// Independent uniform draws over 50 keys agree on about 40 of 2000 rows.
	if same > 200 {
		t.Fatalf("t_fk and u_fk agree on %d of %d rows: one random stream for two units", same, len(tfk))
	}
	if t2, u2 := populate(); !slices.Equal(t2, tfk) || !slices.Equal(u2, ufk) {
		t.Fatal("uniform fill differs between two runs at one seed")
	}
}
