package engine

import (
	"context"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// paperDB builds the running example of the paper (Figures 1 and 3): tables
// S (4 rows) and T (8 rows, T references S), with T's non-key columns laid
// out as the non-key generator would produce them (three bound rows (4,2) at
// the head, Example 4.8).
func paperDB(t *testing.T) *storage.DB {
	t.Helper()
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{
			Name: "s", Rows: 4,
			Columns: []relalg.Column{
				{Name: "s_pk", Kind: relalg.PrimaryKey},
				{Name: "s1", Kind: relalg.NonKey, DomainSize: 4},
			},
		},
		{
			Name: "t", Rows: 8,
			Columns: []relalg.Column{
				{Name: "t_pk", Kind: relalg.PrimaryKey},
				{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
				{Name: "t1", Kind: relalg.NonKey, DomainSize: 5},
				{Name: "t2", Kind: relalg.NonKey, DomainSize: 4},
			},
		},
	}}
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(schema)
	s := db.Table("s")
	s.SetCol("s1", []int64{1, 2, 3, 4})
	tt := db.Table("t")
	tt.SetCol("t_fk", []int64{1, 2, 2, 3, 1, 2, 4, 4})
	tt.SetCol("t1", []int64{4, 4, 4, 3, 3, 5, 1, 2})
	tt.SetCol("t2", []int64{2, 2, 2, 1, 3, 3, 4, 4})
	return db
}

func leaf(table string) *relalg.View {
	return &relalg.View{Kind: relalg.LeafView, Table: table, Card: relalg.CardUnknown}
}

func sel(in *relalg.View, pred relalg.Predicate) *relalg.View {
	return &relalg.View{Kind: relalg.SelectView, Pred: pred, Inputs: []*relalg.View{in}, Card: relalg.CardUnknown}
}

func join(jt relalg.JoinType, pkTable string, l, r *relalg.View, fkTable, fkCol string) *relalg.View {
	return &relalg.View{
		Kind:   relalg.JoinView,
		Join:   &relalg.JoinSpec{Type: jt, PKTable: pkTable, FKTable: fkTable, FKCol: fkCol},
		Inputs: []*relalg.View{l, r},
		Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
	}
}

func proj(in *relalg.View, table, col string) *relalg.View {
	return &relalg.View{Kind: relalg.ProjectView, ProjTable: table, ProjCol: col,
		Inputs: []*relalg.View{in}, Card: relalg.CardUnknown}
}

func pv(id string, v int64) *relalg.Param {
	return &relalg.Param{ID: id, Orig: v, Value: v, Instantiated: true}
}

func unary(col string, op relalg.CompareOp, p *relalg.Param) relalg.Predicate {
	return &relalg.UnaryPred{Col: col, Op: op, P: p}
}

func mustExec(t *testing.T, e *Engine, root *relalg.View) *Result {
	t.Helper()
	res, err := e.Execute(&relalg.AQT{Name: "test", Root: root}, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQ1PipelineOnPaperExample(t *testing.T) {
	db := paperDB(t)
	e, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	// Q1: Π_tfk( σ_{s1<3}(S) ⋈ σ_{t1>2}(T) )
	v3 := sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 3)))
	v4 := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2)))
	v5 := join(relalg.EquiJoin, "s", v3, v4, "t", "t_fk")
	v6 := proj(v5, "t", "t_fk")
	res := mustExec(t, e, v6)

	if got := res.Stats[v3].Card; got != 2 {
		t.Errorf("|σ_{s1<3}(S)| = %d, want 2", got)
	}
	if got := res.Stats[v4].Card; got != 6 {
		t.Errorf("|σ_{t1>2}(T)| = %d, want 6", got)
	}
	js := res.Stats[v5]
	if js.Card != 5 || js.JCC != 5 || js.JDC != 2 {
		t.Errorf("join stats = card %d jcc %d jdc %d, want 5/5/2", js.Card, js.JCC, js.JDC)
	}
	if got := res.Stats[v6].Card; got != 2 {
		t.Errorf("|Π_tfk| = %d, want 2", got)
	}
}

func TestArithSelectionAndLeftOuter(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	// Q2: S ⟕ σ_{t1-t2>0}(T)
	expr := relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}}
	v7 := sel(leaf("t"), &relalg.ArithPred{Expr: expr, Op: relalg.OpGt, P: pv("p3", 0)})
	v8 := join(relalg.LeftOuterJoin, "s", leaf("s"), v7, "t", "t_fk")
	res := mustExec(t, e, v8)

	if got := res.Stats[v7].Card; got != 5 {
		t.Errorf("|σ_{t1-t2>0}(T)| = %d, want 5", got)
	}
	js := res.Stats[v8]
	if js.JCC != 5 || js.JDC != 3 {
		t.Errorf("left outer jcc/jdc = %d/%d, want 5/3", js.JCC, js.JDC)
	}
	// Table 2: |S| - jdc + jcc = 4 - 3 + 5 = 6.
	if js.Card != 6 {
		t.Errorf("left outer card = %d, want 6", js.Card)
	}
	if js.Card != relalg.JoinOutputSize(relalg.LeftOuterJoin, js.JCC, js.JDC, 4, 5) {
		t.Error("engine card disagrees with Table 2 algebra")
	}
}

// TestSelectionOverOuterJoinPads runs a selection through Execute over the
// null-padded side of a left outer join: the gathered block holds NULL at
// every pad, so t1 >= 0, true of every real t1, keeps exactly the matched
// tuples. A pad read as 0 would pass it too.
func TestSelectionOverOuterJoinPads(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	expr := relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}}
	r := sel(leaf("t"), &relalg.ArithPred{Expr: expr, Op: relalg.OpGt, P: pv("p3", 0)})
	j := join(relalg.LeftOuterJoin, "s", leaf("s"), r, "t", "t_fk")
	top := sel(j, unary("t1", relalg.OpGe, pv("p", 0)))
	res := mustExec(t, e, top)
	if js := res.Stats[j]; js.Card != 6 || js.JCC != 5 {
		t.Fatalf("left outer card/jcc = %d/%d, want 6/5 (one padded tuple)", js.Card, js.JCC)
	}
	if got := res.Stats[top].Card; got != 5 {
		t.Errorf("|σ_{t1>=0}(S ⟕ T)| = %d, want the 5 matched tuples: a pad must read NULL", got)
	}
}

// TestNullPadSatisfiesNoComparison: σ_{t1<9} over S ⟕ σ_{t1−t2>0}(T)
// keeps the 5 matched tuples and drops the padded one. The pad holds NULL,
// and NULL < 9 is unknown in SQL's three-valued logic, not true — although
// NULL's sentinel is the smallest int64. Count evaluates this shape through
// Execute and must agree.
func TestNullPadSatisfiesNoComparison(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	expr := relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}}
	r := sel(leaf("t"), &relalg.ArithPred{Expr: expr, Op: relalg.OpGt, P: pv("p3", 0)})
	j := join(relalg.LeftOuterJoin, "s", leaf("s"), r, "t", "t_fk")
	top := sel(j, unary("t1", relalg.OpLt, pv("p", 9)))
	q := &relalg.AQT{Name: "null pad", Root: top}
	res, err := e.Execute(q, false)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := e.Count(context.Background(), q, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"Execute": res, "Count": counted} {
		if js := res.Stats[j]; js.Card != 6 || js.JCC != 5 {
			t.Fatalf("%s: left outer card/jcc = %d/%d, want 6/5 (one padded tuple)", name, js.Card, js.JCC)
		}
		if got := res.Stats[top].Card; got != 5 {
			t.Errorf("%s: |σ_{t1<9}(S ⟕ T)| = %d, want the 5 matched tuples: a NULL pad is not < 9", name, got)
		}
	}
}

func TestLogicalPredicateSelection(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	// Q3: σ_{(t1<=1 or t2=0) and t1-t2<5}(T)
	expr := relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}}
	pred := &relalg.AndPred{Kids: []relalg.Predicate{
		&relalg.OrPred{Kids: []relalg.Predicate{
			unary("t1", relalg.OpLe, pv("p4", 1)),
			unary("t2", relalg.OpEq, pv("p5", 0)),
		}},
		&relalg.ArithPred{Expr: expr, Op: relalg.OpLt, P: pv("p6", 5)},
	}}
	v9 := sel(leaf("t"), pred)
	res := mustExec(t, e, v9)
	if got := res.Stats[v9].Card; got != 1 {
		t.Errorf("|V9| = %d, want 1", got)
	}

	// Q4: σ_{t1<>4 or t2<>2}(T): complement of the 3 bound rows -> 5.
	v10 := sel(leaf("t"), &relalg.OrPred{Kids: []relalg.Predicate{
		unary("t1", relalg.OpNe, pv("p7", 4)),
		unary("t2", relalg.OpNe, pv("p8", 2)),
	}})
	res = mustExec(t, e, v10)
	if got := res.Stats[v10].Card; got != 5 {
		t.Errorf("|V10| = %d, want 5", got)
	}
}

// TestAllJoinTypesAgainstTable2 executes every join type on the paper
// example and cross-checks the engine's output size against the Table 2
// algebra fed with the engine's own observed jcc/jdc.
func TestAllJoinTypesAgainstTable2(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	types := []relalg.JoinType{
		relalg.EquiJoin, relalg.LeftOuterJoin, relalg.RightOuterJoin, relalg.FullOuterJoin,
		relalg.LeftSemiJoin, relalg.RightSemiJoin, relalg.LeftAntiJoin, relalg.RightAntiJoin,
	}
	for _, jt := range types {
		// σ_{s1<3}(S) ⋈ σ_{t1>2}(T): left 2 rows, right 6 rows, jcc 5, jdc 2.
		l := sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 3)))
		r := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2)))
		j := join(jt, "s", l, r, "t", "t_fk")
		res := mustExec(t, e, j)
		js := res.Stats[j]
		want := relalg.JoinOutputSize(jt, js.JCC, js.JDC, res.Stats[l].Card, res.Stats[r].Card)
		if js.Card != want {
			t.Errorf("%v: card %d, want %d (jcc %d jdc %d)", jt, js.Card, want, js.JCC, js.JDC)
		}
	}
}

func TestSemiAntiJoinContents(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	// Left semi: S rows with at least one T row (fk present): pks {1,2,3,4}
	// all appear in t_fk, so card 4.
	j := join(relalg.LeftSemiJoin, "s", leaf("s"), leaf("t"), "t", "t_fk")
	if got := mustExec(t, e, j).Stats[j].Card; got != 4 {
		t.Errorf("left semi = %d, want 4", got)
	}
	// Left anti against σ_{t1>3}(T): fks of t1=4 rows = {1,2,2}: S rows
	// unmatched = {3,4} -> 2.
	r := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 3)))
	j = join(relalg.LeftAntiJoin, "s", leaf("s"), r, "t", "t_fk")
	if got := mustExec(t, e, j).Stats[j].Card; got != 2 {
		t.Errorf("left anti = %d, want 2", got)
	}
	// Right anti: T rows whose fk not in σ_{s1<2}(S) = {1}: fk != 1 -> 6.
	l := sel(leaf("s"), unary("s1", relalg.OpLt, pv("p", 2)))
	j = join(relalg.RightAntiJoin, "s", l, leaf("t"), "t", "t_fk")
	if got := mustExec(t, e, j).Stats[j].Card; got != 6 {
		t.Errorf("right anti = %d, want 6", got)
	}
}

func TestMultiJoinChain(t *testing.T) {
	// Three-table chain: u references t references s.
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "s", Rows: 2, Columns: []relalg.Column{
			{Name: "s_pk", Kind: relalg.PrimaryKey},
			{Name: "s1", Kind: relalg.NonKey, DomainSize: 2},
		}},
		{Name: "t", Rows: 4, Columns: []relalg.Column{
			{Name: "t_pk", Kind: relalg.PrimaryKey},
			{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
			{Name: "t1", Kind: relalg.NonKey, DomainSize: 2},
		}},
		{Name: "u", Rows: 8, Columns: []relalg.Column{
			{Name: "u_pk", Kind: relalg.PrimaryKey},
			{Name: "u_fk", Kind: relalg.ForeignKey, Refs: "t"},
			{Name: "u1", Kind: relalg.NonKey, DomainSize: 2},
		}},
	}}
	db := storage.NewDB(schema)
	db.Table("s").SetCol("s1", []int64{1, 2})
	db.Table("t").SetCol("t_fk", []int64{1, 1, 2, 2})
	db.Table("t").SetCol("t1", []int64{1, 2, 1, 2})
	db.Table("u").SetCol("u_fk", []int64{1, 2, 3, 4, 1, 2, 3, 4})
	db.Table("u").SetCol("u1", []int64{1, 1, 1, 1, 2, 2, 2, 2})
	e, _ := New(db)

	// (σ_{s1=1}(S) ⋈ T) ⋈ σ_{u1=1}(U)
	j1 := join(relalg.EquiJoin, "s", sel(leaf("s"), unary("s1", relalg.OpEq, pv("p1", 1))), leaf("t"), "t", "t_fk")
	j2 := join(relalg.EquiJoin, "t", j1, sel(leaf("u"), unary("u1", relalg.OpEq, pv("p2", 1))), "u", "u_fk")
	res := mustExec(t, e, j2)
	// j1: s1=1 selects pk 1; t rows with fk=1: rows 1,2 -> jcc 2.
	if got := res.Stats[j1]; got.Card != 2 || got.JCC != 2 || got.JDC != 1 {
		t.Errorf("j1 = %+v, want card 2 jcc 2 jdc 1", got)
	}
	// j2: u1=1 selects u rows 1..4 with fk 1,2,3,4; t pks in j1 = {1,2};
	// matches u rows 1,2 -> jcc 2, jdc 2.
	if got := res.Stats[j2]; got.Card != 2 || got.JCC != 2 || got.JDC != 2 {
		t.Errorf("j2 = %+v, want card 2 jcc 2 jdc 2", got)
	}
}

func TestAggregateView(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	agg := &relalg.View{Kind: relalg.AggView, GroupBy: []string{"t1"},
		Inputs: []*relalg.View{leaf("t")}, Card: relalg.CardUnknown}
	res := mustExec(t, e, agg)
	if got := res.Stats[agg].Card; got != 5 { // t1 has 5 distinct values
		t.Errorf("group count = %d, want 5", got)
	}
	agg2 := &relalg.View{Kind: relalg.AggView, Inputs: []*relalg.View{leaf("t")}, Card: relalg.CardUnknown}
	if got := mustExec(t, e, agg2).Stats[agg2].Card; got != 1 {
		t.Errorf("scalar agg card = %d, want 1", got)
	}
}

func TestOrigVersusInstantiatedExecution(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	p := &relalg.Param{ID: "p", Orig: 3, Value: 5, Instantiated: true}
	v := sel(leaf("t"), unary("t1", relalg.OpLt, p))
	q := &relalg.AQT{Name: "q", Root: v}
	resOrig, err := e.Execute(q, true)
	if err != nil {
		t.Fatal(err)
	}
	resInst, err := e.Execute(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if resOrig.Stats[v].Card != 3 { // t1<3: values 1,2 and one more? t1=[4,4,4,3,3,5,1,2]: <3 -> {1,2} = 2 rows
		// recompute: t1 < 3 matches 1 and 2 -> 2 rows
	}
	if got := resOrig.Stats[v].Card; got != 2 {
		t.Errorf("orig card = %d, want 2", got)
	}
	if got := resInst.Stats[v].Card; got != 5 { // t1<5: all but the 5 -> 7? t1 values: 4,4,4,3,3,1,2 -> 7
		t.Logf("instantiated card = %d", got)
	}
	if got := resInst.Stats[v].Card; got != 7 {
		t.Errorf("instantiated card = %d, want 7", got)
	}
}

func TestEngineErrors(t *testing.T) {
	db := paperDB(t)
	if _, err := New(db); err != nil {
		t.Fatal(err)
	}
	// Duplicate column names across tables must be rejected.
	dup := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "a", Columns: []relalg.Column{{Name: "x", Kind: relalg.PrimaryKey}}},
		{Name: "b", Columns: []relalg.Column{{Name: "x", Kind: relalg.PrimaryKey}}},
	}}
	if _, err := New(storage.NewDB(dup)); err == nil {
		t.Fatal("New: want duplicate-column error")
	}
	// Unknown leaf table.
	e, _ := New(db)
	if _, err := e.Execute(&relalg.AQT{Name: "bad", Root: leaf("nope")}, false); err == nil {
		t.Fatal("Execute: want unknown-table error")
	}
	// Join whose PK table is absent from the left input.
	j := join(relalg.EquiJoin, "t", leaf("s"), leaf("t"), "t", "t_fk")
	if _, err := e.Execute(&relalg.AQT{Name: "bad2", Root: j}, false); err == nil {
		t.Fatal("Execute: want join-shape error")
	}
}

func TestProjectionSkipsNullPads(t *testing.T) {
	db := paperDB(t)
	e, _ := New(db)
	// Full outer join produces null-padded T slots; projecting t_fk over the
	// output must only count real fk values.
	l := sel(leaf("s"), unary("s1", relalg.OpGe, pv("p", 4))) // pk {4}
	r := sel(leaf("t"), unary("t1", relalg.OpLe, pv("p", 2))) // rows 7,8: fk 4,4
	j := join(relalg.FullOuterJoin, "s", l, r, "t", "t_fk")
	p := proj(j, "t", "t_fk")
	res := mustExec(t, e, p)
	if got := res.Stats[p].Card; got != 1 {
		t.Errorf("projection over padded relation = %d, want 1", got)
	}
}
