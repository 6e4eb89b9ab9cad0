package nonkey

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

func par(id string, v int64) *relalg.Param { return &relalg.Param{ID: id, Orig: v} }

func unary(col string, op relalg.CompareOp, p *relalg.Param) *relalg.UnaryPred {
	return &relalg.UnaryPred{Col: col, Op: op, P: p}
}

func selCons(id int, table string, pred relalg.Predicate, card int64) *genplan.SelCons {
	return &genplan.SelCons{ID: id, Query: "q", Table: table, Pred: pred, Card: card}
}

// planAndMaterialize runs the full non-key pipeline for table t of the paper
// schema and returns the generated data.
func planAndMaterialize(t *testing.T, sels []*genplan.SelCons) (*TablePlan, *storage.TableData) {
	t.Helper()
	schema := testutil.PaperSchema()
	tbl := schema.MustTable("t")
	tp, err := PlanTable(Config{Seed: 1}, tbl, sels)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(schema)
	data := db.Table("t")
	if err := tp.Materialize(context.Background(), data, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := InstantiateACCs(Config{Seed: 1}, tp, data); err != nil {
		t.Fatal(err)
	}
	return tp, data
}

// evalSelection counts the rows of data that satisfy pred, bound to buffers
// that hold every row of the columns it reads: the tests' self-check of the
// generated data.
func evalSelection(t *testing.T, data *storage.TableData, pred relalg.Predicate) int64 {
	t.Helper()
	sel := make([]int32, data.Rows())
	for r := range sel {
		sel[r] = int32(r)
	}
	b, err := storage.FillRows(data.Gather, pred.Columns(nil), sel)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := relalg.BindPred(pred, b, false)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(bound.FilterBatch(sel)))
}

// TestPaperExample46 reproduces Section 4.2's worked example: UCCs
// |σ_{t1>p2}| = 6, |σ_{t1<=p4}| = 1, |σ_{t1=p7}| = 3 on column t1 with
// |T| = 8, |T|_{t1} = 5.
func TestPaperExample46(t *testing.T) {
	p2, p4, p7 := par("p2", 0), par("p4", 0), par("p7", 0)
	sels := []*genplan.SelCons{
		selCons(0, "t", unary("t1", relalg.OpGt, p2), 6),
		selCons(1, "t", unary("t1", relalg.OpLe, p4), 1),
		selCons(2, "t", unary("t1", relalg.OpEq, p7), 3),
	}
	_, data := planAndMaterialize(t, sels)
	for _, sc := range sels {
		if got := evalSelection(t, data, sc.Pred); got != sc.Card {
			t.Errorf("|%s| = %d, want %d", sc.Pred, got, sc.Card)
		}
	}
	// Partial order from the paper: p4 < p2 < p7 in cardinality space.
	if !(p4.Value < p2.Value && p2.Value < p7.Value) {
		t.Errorf("param order p4=%d p2=%d p7=%d, want p4 < p2 < p7", p4.Value, p2.Value, p7.Value)
	}
	// All five domain values must appear.
	seen := make(map[int64]bool)
	for _, v := range data.Col("t1") {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("t1 carries %d distinct values, want 5", len(seen))
	}
}

// TestPaperExample42LCC decouples Q3's logical constraint
// |σ_{(t1<=p4 ∨ t2=p5) ∧ t1−t2<p6}| = 1 and checks the generated data meets
// the ORIGINAL logical predicate exactly.
func TestPaperExample42LCC(t *testing.T) {
	p4, p5, p6 := par("p4", 0), par("p5", 0), par("p6", 0)
	pred := &relalg.AndPred{Kids: []relalg.Predicate{
		&relalg.OrPred{Kids: []relalg.Predicate{
			unary("t1", relalg.OpLe, p4),
			unary("t2", relalg.OpEq, p5),
		}},
		&relalg.ArithPred{
			Expr: relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}},
			Op:   relalg.OpLt, P: p6,
		},
	}}
	sels := []*genplan.SelCons{selCons(0, "t", pred, 1)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 1 {
		t.Errorf("|V9| = %d, want 1 (params p4=%s p5=%s p6=%s)", got, p4, p5, p6)
	}
}

// TestPaperExample43Rule3 checks Q4's negative-only clause:
// |σ_{t1<>p7 ∨ t2<>p8}| = 5 on 8 rows becomes the bound-row constraint
// |σ_{t1=p7} ∩ σ_{t2=p8}| = 3 (Example 4.3 / 4.8).
func TestPaperExample43Rule3(t *testing.T) {
	p7, p8 := par("p7", 0), par("p8", 0)
	pred := &relalg.OrPred{Kids: []relalg.Predicate{
		unary("t1", relalg.OpNe, p7),
		unary("t2", relalg.OpNe, p8),
	}}
	sels := []*genplan.SelCons{selCons(0, "t", pred, 5)}
	tp, data := planAndMaterialize(t, sels)
	if len(tp.Bound) != 1 || tp.Bound[0].Card != 3 {
		t.Fatalf("bound blocks = %+v, want one block of 3 rows", tp.Bound)
	}
	if got := evalSelection(t, data, pred); got != 5 {
		t.Errorf("|V10| = %d, want 5", got)
	}
	// The three bound rows sit at the head.
	t1, t2 := data.Col("t1"), data.Col("t2")
	for r := 0; r < 3; r++ {
		if t1[r] != p7.Value || t2[r] != p8.Value {
			t.Errorf("row %d = (%d,%d), want bound values (%d,%d)", r, t1[r], t2[r], p7.Value, p8.Value)
		}
	}
}

func TestArithmeticConstraintExact(t *testing.T) {
	p3 := par("p3", 0)
	pred := &relalg.ArithPred{
		Expr: relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t2"}},
		Op:   relalg.OpGt, P: p3,
	}
	sels := []*genplan.SelCons{selCons(0, "t", pred, 5)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 5 {
		t.Errorf("|σ_{t1-t2>p3}| = %d, want 5", got)
	}
}

func TestInListConstraint(t *testing.T) {
	p := &relalg.Param{ID: "p", OrigList: []int64{1, 2, 3}}
	pred := unary("t1", relalg.OpIn, p)
	sels := []*genplan.SelCons{selCons(0, "t", pred, 5)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 5 {
		t.Errorf("|σ_{t1 in ...}| = %d, want 5 (list %v)", got, p.List)
	}
	if len(p.List) == 0 || len(p.List) > 3 {
		t.Errorf("instantiated list %v, want 1..3 values", p.List)
	}
}

func TestNotInConstraint(t *testing.T) {
	p := &relalg.Param{ID: "p", OrigList: []int64{1, 2}}
	pred := unary("t1", relalg.OpNotIn, p)
	sels := []*genplan.SelCons{selCons(0, "t", pred, 6)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 6 {
		t.Errorf("|σ_{t1 not in ...}| = %d, want 6", got)
	}
}

func TestMixedConstraintsOnTwoColumns(t *testing.T) {
	pa, pb, pc := par("a", 0), par("b", 0), par("c", 0)
	sels := []*genplan.SelCons{
		selCons(0, "t", unary("t1", relalg.OpLt, pa), 3),
		selCons(1, "t", unary("t1", relalg.OpGe, pb), 4),
		selCons(2, "t", unary("t2", relalg.OpEq, pc), 2),
	}
	_, data := planAndMaterialize(t, sels)
	for _, sc := range sels {
		if got := evalSelection(t, data, sc.Pred); got != sc.Card {
			t.Errorf("|%s| = %d, want %d", sc.Pred, got, sc.Card)
		}
	}
}

func TestZeroCardinalitySelection(t *testing.T) {
	p := par("p", 0)
	pred := unary("t1", relalg.OpEq, p)
	sels := []*genplan.SelCons{selCons(0, "t", pred, 0)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 0 {
		t.Errorf("|σ_{t1=NULL-ish}| = %d, want 0", got)
	}
	if p.Value != relalg.NullValue {
		t.Errorf("zero-card param = %d, want NullValue", p.Value)
	}
}

func TestFullTableSelection(t *testing.T) {
	p := par("p", 0)
	pred := unary("t1", relalg.OpGt, p)
	sels := []*genplan.SelCons{selCons(0, "t", pred, 8)}
	_, data := planAndMaterialize(t, sels)
	if got := evalSelection(t, data, pred); got != 8 {
		t.Errorf("full-table selection = %d, want 8", got)
	}
}

func TestUnconstrainedColumnCoversDomain(t *testing.T) {
	_, data := planAndMaterialize(t, nil)
	for _, col := range []string{"t1", "t2"} {
		seen := make(map[int64]bool)
		for _, v := range data.Col(col) {
			seen[v] = true
		}
		want := map[string]int{"t1": 5, "t2": 4}[col]
		if len(seen) != want {
			t.Errorf("%s distinct = %d, want %d", col, len(seen), want)
		}
	}
}

func TestDomainLargerThanRowsRejected(t *testing.T) {
	schema := &relalg.Schema{Tables: []*relalg.Table{{
		Name: "x", Rows: 3,
		Columns: []relalg.Column{
			{Name: "x_pk", Kind: relalg.PrimaryKey},
			{Name: "x1", Kind: relalg.NonKey, DomainSize: 10},
		},
	}}}
	if _, err := PlanTable(Config{}, schema.MustTable("x"), nil); err == nil {
		t.Fatal("want domain-too-large error")
	}
}

func TestConflictingConstraintsRejected(t *testing.T) {
	// Two equalities of 5 rows each on a different value cannot fit 8 rows
	// alongside domain coverage: 5+5 > 8.
	sels := []*genplan.SelCons{
		selCons(0, "t", unary("t1", relalg.OpEq, par("a", 0)), 5),
		selCons(1, "t", &relalg.AndPred{Kids: []relalg.Predicate{
			unary("t1", relalg.OpEq, par("b", 0)),
			unary("t2", relalg.OpEq, par("c", 0)),
		}}, 5),
	}
	schema := testutil.PaperSchema()
	if _, err := PlanTable(Config{}, schema.MustTable("t"), sels); err == nil {
		t.Fatal("want packing failure")
	}
}

// TestTheorem61Property property-tests UCC exactness: random consistent UCC
// sets on a random column always generate data meeting every UCC exactly.
func TestTheorem61Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		rows := int64(20 + rng.Intn(200))
		domain := int64(2 + rng.Intn(10))
		if domain > rows {
			domain = rows
		}
		schema := &relalg.Schema{Tables: []*relalg.Table{{
			Name: "x", Rows: rows,
			Columns: []relalg.Column{
				{Name: "x_pk", Kind: relalg.PrimaryKey},
				{Name: "x1", Kind: relalg.NonKey, DomainSize: domain},
			},
		}}}
		// Random range constraints (always consistent: random counts in
		// [0, rows] define a valid CDF once sorted).
		var sels []*genplan.SelCons
		nCons := 1 + rng.Intn(4)
		for i := 0; i < nCons; i++ {
			ops := []relalg.CompareOp{relalg.OpLe, relalg.OpLt, relalg.OpGt, relalg.OpGe}
			op := ops[rng.Intn(len(ops))]
			card := int64(rng.Intn(int(rows + 1)))
			sels = append(sels, selCons(i, "x", unary("x1", op, par("p", 0)), card))
		}
		tp, err := PlanTable(Config{Seed: int64(trial)}, schema.MustTable("x"), sels)
		if err != nil {
			// Range constraints alone can exceed the value budget when the
			// domain is tiny (more boundaries than values); that is a
			// legitimate infeasibility report, not an error.
			continue
		}
		db := storage.NewDB(schema)
		data := db.Table("x")
		if err := tp.Materialize(context.Background(), data, int64(trial), 1, nil); err != nil {
			t.Fatalf("trial %d: materialize: %v", trial, err)
		}
		for _, sc := range sels {
			if got := evalSelection(t, data, sc.Pred); got != sc.Card {
				t.Fatalf("trial %d: |%s| = %d, want %d (rows=%d domain=%d)",
					trial, sc.Pred, got, sc.Card, rows, domain)
			}
		}
		// Domain coverage invariant.
		seen := make(map[int64]bool)
		for _, v := range data.Col("x1") {
			seen[v] = true
		}
		if int64(len(seen)) != domain {
			t.Fatalf("trial %d: distinct = %d, want %d", trial, len(seen), domain)
		}
	}
}

// TestACCSamplingErrorBound generates a large table, instantiates an ACC on
// a sample, and checks the relative error stays within the paper's bound.
func TestACCSamplingErrorBound(t *testing.T) {
	rows := int64(50_000)
	schema := &relalg.Schema{Tables: []*relalg.Table{{
		Name: "big", Rows: rows,
		Columns: []relalg.Column{
			{Name: "b_pk", Kind: relalg.PrimaryKey},
			{Name: "b1", Kind: relalg.NonKey, DomainSize: 1000},
			{Name: "b2", Kind: relalg.NonKey, DomainSize: 1000},
		},
	}}}
	p := par("p", 0)
	pred := &relalg.ArithPred{
		Expr: relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "b1"}, R: relalg.ColRef{Col: "b2"}},
		Op:   relalg.OpGt, P: p,
	}
	card := int64(20_000)
	sels := []*genplan.SelCons{selCons(0, "big", pred, card)}
	cfg := Config{Seed: 5, SampleSize: 10_000}
	tp, err := PlanTable(cfg, schema.MustTable("big"), sels)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(schema)
	data := db.Table("big")
	if err := tp.Materialize(context.Background(), data, 5, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := InstantiateACCs(cfg, tp, data); err != nil {
		t.Fatal(err)
	}
	got := evalSelection(t, data, pred)
	relErr := float64(abs64(got-card)) / float64(card)
	// Hoeffding at n=10k gives δ ≈ 2% at high confidence; assert 5% slack.
	if relErr > 0.05 {
		t.Fatalf("sampled ACC relative error = %.4f (got %d, want %d)", relErr, got, card)
	}
}

// accTestTable is a one-table schema of rows rows whose two one-byte
// columns b1, b2 carry the ACC b1+b2 > p with a target of half the rows.
func accTestTable(rows int64) (*relalg.Table, []*genplan.SelCons) {
	schema := &relalg.Schema{Tables: []*relalg.Table{{
		Name: "big", Rows: rows,
		Columns: []relalg.Column{
			{Name: "b_pk", Kind: relalg.PrimaryKey},
			{Name: "b1", Kind: relalg.NonKey, DomainSize: 200},
			{Name: "b2", Kind: relalg.NonKey, DomainSize: 200},
		},
	}}}
	pred := &relalg.ArithPred{
		Expr: relalg.BinExpr{Op: relalg.Add, L: relalg.ColRef{Col: "b1"}, R: relalg.ColRef{Col: "b2"}},
		Op:   relalg.OpGt, P: par("p", 0),
	}
	return schema.MustTable("big"), []*genplan.SelCons{selCons(0, "big", pred, rows/2)}
}

// TestACCReadsOnlySampledRows instantiates an ACC over two one-byte columns
// of a table far larger than the sample and bounds what that allocates: the
// sample's row numbers, one buffer per column it reads and the evaluated
// values, each one int64 per sampled row, plus 16 KiB of fixed cost (the
// sampling generator alone is 5 KiB). Widening a column whole, or drawing
// the sample from a whole permutation, would cost 8 bytes per table row.
func TestACCReadsOnlySampledRows(t *testing.T) {
	const rows, sample = 1 << 20, 1_000
	tbl, sels := accTestTable(rows)
	cfg := Config{Seed: 5, SampleSize: sample}
	tp, err := PlanTable(cfg, tbl, sels)
	if err != nil {
		t.Fatal(err)
	}
	data := storage.NewTableData(tbl)
	if err := tp.Materialize(context.Background(), data, 5, 1, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := InstantiateACCs(cfg, tp, data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perSample := uint64(4 * 8 * sample) // row numbers, b1, b2, values
	if got, limit := after.TotalAlloc-before.TotalAlloc, perSample+16<<10; got > limit {
		t.Fatalf("InstantiateACCs allocated %d bytes, want at most %d (%d for the sample plus 16 KiB)", got, limit, perSample)
	}
}

// TestACCsNeedNoStoredColumns: with none of a table's non-key columns
// stored, InstantiateACCs reads the sampled rows from the columns' layouts
// and sets every parameter exactly as the in-memory run, which stores them.
func TestACCsNeedNoStoredColumns(t *testing.T) {
	for _, rows := range []int64{500, 50_000} { // every row, and a sample
		var params [2][]int64
		for mode, retain := range []map[string]bool{nil, {}} {
			tbl, sels := accTestTable(rows)
			cfg := Config{Seed: 9, SampleSize: 2_000}
			tp, err := PlanTable(cfg, tbl, sels)
			if err != nil {
				t.Fatal(err)
			}
			data := storage.NewTableData(tbl)
			if err := tp.Materialize(context.Background(), data, 9, 1, retain); err != nil {
				t.Fatal(err)
			}
			if retain != nil && (data.Col("b1") != nil || data.Col("b2") != nil) {
				t.Fatal("an empty retention stored a column")
			}
			if err := InstantiateACCs(cfg, tp, data); err != nil {
				t.Fatalf("rows %d, retain %v: %v", rows, retain, err)
			}
			for _, acc := range tp.ACCs {
				if !acc.pred.P.Instantiated {
					t.Fatalf("rows %d, retain %v: ACC parameter left unset", rows, retain)
				}
				params[mode] = append(params[mode], acc.pred.P.Value)
			}
		}
		if len(params[0]) == 0 || !slices.Equal(params[0], params[1]) {
			t.Errorf("rows %d: ACC parameters stored %v, from layouts %v", rows, params[0], params[1])
		}
	}
}

// TestPermPrefixMatchesPerm holds permPrefix to its oracle, rand.Perm's
// prefix, for k = 1, n-1 and random k, and checks that both leave the
// generator in the same state.
func TestPermPrefixMatchesPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 600; it++ {
		n := 2 + rng.Intn(3000)
		seed := rng.Int63()
		for _, k := range []int{1, n - 1, 1 + rng.Intn(n-1)} {
			want, wr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := permPrefix(wr, n, k)
			if exp := want.Perm(n)[:k]; !slices.Equal(got, exp) {
				t.Fatalf("n %d k %d seed %d: permPrefix = %v, Perm prefix %v", n, k, seed, got, exp)
			}
			if a, b := want.Int63(), wr.Int63(); a != b {
				t.Fatalf("n %d k %d seed %d: generator states differ after the draw", n, k, seed)
			}
		}
	}
}

func TestHoeffdingSampleSize(t *testing.T) {
	// Paper default: δ=0.1%, α=99.9% -> ~4M rows.
	n := HoeffdingSampleSize(0.001, 0.999)
	if n < 3_500_000 || n > 4_500_000 {
		t.Errorf("HoeffdingSampleSize(0.001, 0.999) = %d, want ≈4M", n)
	}
	if HoeffdingSampleSize(0, 0.5) != DefaultSampleSize {
		t.Error("degenerate inputs must fall back to the default")
	}
}

func TestBestParam(t *testing.T) {
	vals := []int64{1, 2, 2, 3, 5, 8}
	cases := []struct {
		op       relalg.CompareOp
		target   int64
		achieved int64
	}{
		{relalg.OpGt, 2, 2},
		{relalg.OpGt, 0, 0},
		{relalg.OpGt, 6, 6},
		{relalg.OpLe, 4, 4},
		{relalg.OpLt, 1, 1},
		{relalg.OpGe, 3, 3},
		{relalg.OpLe, 2, 2}, // ties at 2: counts jump 1 -> 3; closest is 1 or 3
	}
	for _, tc := range cases {
		p, c := bestParam(vals, tc.op, tc.target)
		count := int64(0)
		for _, v := range vals {
			ok := false
			switch tc.op {
			case relalg.OpGt:
				ok = v > p
			case relalg.OpGe:
				ok = v >= p
			case relalg.OpLt:
				ok = v < p
			case relalg.OpLe:
				ok = v <= p
			}
			if ok {
				count++
			}
		}
		if count != c {
			t.Errorf("%v target %d: reported %d, actual %d", tc.op, tc.target, c, count)
		}
		if tc.op != relalg.OpLe || tc.target != 2 {
			if c != tc.achieved {
				t.Errorf("%v target %d: achieved %d, want %d", tc.op, tc.target, c, tc.achieved)
			}
		}
	}
}

// TestResolveParamsSharedGroupOrder pins the resolution order of two set
// groups that share one in-list parameter (the shape TPC-H q19 produces):
// the group seen later in point order writes the list last and wins, on
// every run. Ranging over a map of groups let either one win.
func TestResolveParamsSharedGroupOrder(t *testing.T) {
	for run := 0; run < 200; run++ {
		p := &relalg.Param{ID: "shared"}
		first, second := &setGroup{p: p}, &setGroup{p: p}
		first.points = []*pointCons{{group: first, value: 3}, {group: first, value: 5}}
		second.points = []*pointCons{{group: second, value: 7}}
		resolveParams([]*pointCons{first.points[0], second.points[0], first.points[1]})
		if len(p.List) != 1 || p.List[0] != 7 {
			t.Fatalf("run %d: shared parameter resolved to %v, want the later group's [7]", run, p.List)
		}
	}
}
