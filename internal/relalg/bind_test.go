package relalg

import (
	"math/rand"
	"testing"
)

// layout is a relation over plain column slices, optionally with a
// row-index indirection carrying null pads (an outer join's).
type layout struct {
	cols map[string][]int64
	idx  []int32 // nil: identity
}

// buffers gathers the layout's columns position by position, as the
// executor's Column.Gather does: a null-padded slot holds NullValue.
func (l layout) buffers() Buffers {
	var b Buffers
	for name, vals := range l.cols {
		buf := vals
		if l.idx != nil {
			buf = make([]int64, len(l.idx))
			for p := range buf {
				buf[p] = l.rowFunc(int32(p))(name)
			}
		}
		b.Names = append(b.Names, name)
		b.Vals = append(b.Vals, buf)
	}
	return b
}

// rowFunc adapts the layout to the row-at-a-time closure EvalPred expects,
// reproducing the executor's null-pad convention.
func (l layout) rowFunc(pos int32) func(string) int64 {
	return func(col string) int64 {
		ri := pos
		if l.idx != nil {
			if ri = l.idx[pos]; ri < 0 {
				return NullValue
			}
		}
		return l.cols[col][ri]
	}
}

func bindTestPreds() []Predicate {
	p := func(v int64) *Param { return &Param{ID: "p", Orig: v, Value: v, Instantiated: true} }
	plist := func(vs ...int64) *Param { return &Param{ID: "p", OrigList: vs, List: vs, Instantiated: true} }
	sub := BinExpr{Op: Sub, L: ColRef{Col: "a"}, R: ColRef{Col: "b"}}
	div := BinExpr{Op: Div, L: ColRef{Col: "a"}, R: BinExpr{Op: Sub, L: ColRef{Col: "b"}, R: ConstExpr{V: 3}}}
	return []Predicate{
		&UnaryPred{Col: "a", Op: OpEq, P: p(4)},
		&UnaryPred{Col: "a", Op: OpNe, P: p(4)},
		&UnaryPred{Col: "a", Op: OpLt, P: p(5)},
		&UnaryPred{Col: "a", Op: OpLe, P: p(5)},
		&UnaryPred{Col: "b", Op: OpGt, P: p(2)},
		&UnaryPred{Col: "b", Op: OpGe, P: p(2)},
		&UnaryPred{Col: "a", Op: OpIn, P: plist(1, 3, 7)},
		&UnaryPred{Col: "a", Op: OpNotIn, P: plist(1, 3, 7)},
		&UnaryPred{Col: "b", Op: OpLike, P: plist(2, 4)},
		&UnaryPred{Col: "b", Op: OpNotLike, P: plist(2, 4)},
		// Table 3 sentinels: NULL parameter, ±infinity boundaries.
		&UnaryPred{Col: "a", Op: OpEq, P: p(NullValue)},
		&UnaryPred{Col: "a", Op: OpNe, P: p(NullValue)},
		&UnaryPred{Col: "a", Op: OpLt, P: p(PosInf)},
		&UnaryPred{Col: "a", Op: OpGe, P: p(NegInf)},
		&ArithPred{Expr: sub, Op: OpGt, P: p(0)},
		&ArithPred{Expr: div, Op: OpLe, P: p(1)},
		&ArithPred{Expr: sub, Op: OpLt, P: p(NullValue)},
		&AndPred{Kids: []Predicate{
			&UnaryPred{Col: "a", Op: OpGt, P: p(2)},
			&UnaryPred{Col: "b", Op: OpLt, P: p(8)},
		}},
		&OrPred{Kids: []Predicate{
			&UnaryPred{Col: "a", Op: OpLe, P: p(1)},
			&ArithPred{Expr: sub, Op: OpGe, P: p(4)},
		}},
		&NotPred{Kid: &OrPred{Kids: []Predicate{
			&UnaryPred{Col: "a", Op: OpEq, P: p(3)},
			&UnaryPred{Col: "b", Op: OpEq, P: p(3)},
		}}},
		TruePred{},
		&AndPred{Kids: []Predicate{TruePred{}, &UnaryPred{Col: "a", Op: OpGt, P: p(5)}}},
	}
}

// bindSweepPreds draws every comparator at selectivities near 0, 50 and
// 100 % over columns holding 0..9 (scalar parameters 0, 5 and 9 on a, -9, 0
// and 9 on a-b), IN lists of both kinds — dense ones, more than four values
// over a narrow span (a bitset), and sparse ones, short or spread wider than
// maxSetSpan (ORed) — and arithmetic whose batch path meets NULL operands
// (the padded layout's pads, a NULL literal) and division by zero.
func bindSweepPreds() []Predicate {
	p := func(v int64) *Param { return &Param{ID: "p", Orig: v, Value: v, Instantiated: true} }
	plist := func(vs ...int64) *Param { return &Param{ID: "p", OrigList: vs, List: vs, Instantiated: true} }
	a, b := ColRef{Col: "a"}, ColRef{Col: "b"}
	sub := BinExpr{Op: Sub, L: a, R: b}
	var preds []Predicate
	for op := OpEq; op <= OpGe; op++ {
		for _, v := range []int64{0, 5, 9} {
			preds = append(preds, &UnaryPred{Col: "a", Op: op, P: p(v)})
		}
		for _, v := range []int64{-9, 0, 9} {
			preds = append(preds, &ArithPred{Expr: sub, Op: op, P: p(v)})
		}
	}
	lists := [][]int64{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},             // dense, every value
		{0, 2, 4, 6, 8, NullValue},                 // dense, half
		{11, 12, 13, 14, 15},                       // dense, none present
		{3 << 20, 2, 4, -(3 << 20), 6, 8},          // sparse, half
		{-5_000_000, 11, 3 << 20, 99, 12, 1 << 40}, // sparse, none present
		{1, 3, 5, 7},                               // short, every value present
		{9},                                        // short
		{NullValue},                                // NULL alone
		{},                                         // empty
	}
	for _, l := range lists {
		for _, op := range []CompareOp{OpIn, OpNotIn, OpLike, OpNotLike} {
			preds = append(preds, &UnaryPred{Col: "b", Op: op, P: plist(l...)})
		}
	}
	exprs := []ArithExpr{
		BinExpr{Op: Div, L: a, R: BinExpr{Op: Sub, L: b, R: b}},                                                        // always / 0
		BinExpr{Op: Div, L: BinExpr{Op: Mul, L: a, R: ConstExpr{V: 7}}, R: BinExpr{Op: Sub, L: b, R: ConstExpr{V: 4}}}, // / 0 where b = 4
		BinExpr{Op: Add, L: a, R: ConstExpr{V: NullValue}},                                                             // NULL literal
		BinExpr{Op: Sub, L: BinExpr{Op: Mul, L: a, R: b}, R: BinExpr{Op: Div, L: b, R: a}},
	}
	for _, e := range exprs {
		for _, op := range []CompareOp{OpEq, OpNe, OpLt, OpGe} {
			for _, v := range []int64{-1, 0, 9} {
				preds = append(preds, &ArithPred{Expr: e, Op: op, P: p(v)})
			}
		}
	}
	return preds
}

// TestBoundMatchesEvalPred is the differential test anchoring the batch path
// to the row-at-a-time oracle: for every predicate shape and both layouts
// (identity, and buffers gathered through a padded indirection), FilterBatch
// must keep exactly the positions EvalPred accepts, and EvalRow must agree
// position-wise. The sweep (bindSweepPreds) takes every branch-free kernel
// through selectivities near 0, 50 and 100 %.
func TestBoundMatchesEvalPred(t *testing.T) {
	const n = 2500 // more than two arithmetic blocks
	rng := rand.New(rand.NewSource(7))
	a := make([]int64, n)
	bvals := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(10)
		bvals[i] = rng.Int63n(10)
	}
	// Padded layout: positions address a shuffled idx with ~1/8 null pads.
	idx := make([]int32, n)
	for i := range idx {
		if rng.Intn(8) == 0 {
			idx[i] = -1
		} else {
			idx[i] = int32(rng.Intn(n))
		}
	}
	layouts := []layout{
		{cols: map[string][]int64{"a": a, "b": bvals}},
		{cols: map[string][]int64{"a": a, "b": bvals}, idx: idx},
	}
	var setKinds [2]int // boundSets bound as a bitset, ORed
	for li, binder := range layouts {
		bufs := binder.buffers()
		for pi, pred := range append(bindTestPreds(), bindSweepPreds()...) {
			bound, err := BindPred(pred, bufs, false)
			if err != nil {
				t.Fatalf("layout %d pred %d (%s): bind: %v", li, pi, pred, err)
			}
			if s, ok := bound.(*boundSet); ok {
				setKinds[b2i(s.bits == nil)]++
			}
			sel := make([]int32, n)
			for i := range sel {
				sel[i] = int32(i)
			}
			got := bound.FilterBatch(sel)
			var want []int32
			for i := int32(0); i < n; i++ {
				if pred.EvalPred(binder.rowFunc(i), false) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("layout %d pred %d (%s): batch kept %d rows, EvalPred %d", li, pi, pred, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("layout %d pred %d (%s): position %d: batch %d, EvalPred %d", li, pi, pred, k, got[k], want[k])
				}
			}
			for i := int32(0); i < n; i++ {
				if bound.EvalRow(i) != pred.EvalPred(binder.rowFunc(i), false) {
					t.Fatalf("layout %d pred %d (%s): EvalRow(%d) disagrees with EvalPred", li, pi, pred, i)
				}
			}
		}
	}
	if setKinds[0] == 0 || setKinds[1] == 0 {
		t.Fatalf("%d set predicates bound as a bitset, %d ORed: want both kinds", setKinds[0], setKinds[1])
	}
}

// TestBindOrigSelectsOriginalParams checks the orig flag freezes the right
// parameter generation into the bound form.
func TestBindOrigSelectsOriginalParams(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5}
	binder := Buffers{Names: []string{"a"}, Vals: [][]int64{vals}}
	pred := &UnaryPred{Col: "a", Op: OpLt, P: &Param{ID: "p", Orig: 3, Value: 5, Instantiated: true}}
	sel := []int32{0, 1, 2, 3, 4}
	bOrig, err := BindPred(pred, binder, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bOrig.FilterBatch(append([]int32(nil), sel...))); got != 2 {
		t.Errorf("orig: kept %d rows, want 2", got)
	}
	bInst, err := BindPred(pred, binder, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bInst.FilterBatch(append([]int32(nil), sel...))); got != 4 {
		t.Errorf("instantiated: kept %d rows, want 4", got)
	}
}

// TestBindUnknownColumn checks binding surfaces resolution errors instead of
// panicking at evaluation time.
func TestBindUnknownColumn(t *testing.T) {
	binder := Buffers{Names: []string{"a"}, Vals: [][]int64{{1}}}
	pred := &UnaryPred{Col: "zz", Op: OpEq, P: &Param{ID: "p", Orig: 1, Value: 1, Instantiated: true}}
	if _, err := BindPred(pred, binder, false); err == nil {
		t.Fatal("want error for unknown column")
	}
	if _, err := BindArith(ColRef{Col: "zz"}, binder); err == nil {
		t.Fatal("want error for unknown column in arithmetic expression")
	}
}

// TestNullCellSatisfiesNoComparison: a NULL cell — an outer join's pad —
// satisfies no comparison, whatever the comparator and parameter, in the
// bound path and in EvalPred alike (SQL's three-valued logic). The non-NULL
// cell beside it keeps each predicate meaningful: every predicate here keeps
// it, so a bound loop that dropped every cell would fail too.
func TestNullCellSatisfiesNoComparison(t *testing.T) {
	p := func(v int64) *Param { return &Param{ID: "p", Orig: v, Value: v, Instantiated: true} }
	plist := func(vs ...int64) *Param { return &Param{ID: "p", OrigList: vs, List: vs, Instantiated: true} }
	sub := BinExpr{Op: Sub, L: ColRef{Col: "a"}, R: ColRef{Col: "b"}}
	// Position 0 holds a = b = NULL, position 1 holds a = 4, b = 2.
	bufs := Buffers{Names: []string{"a", "b"}, Vals: [][]int64{{NullValue, 4}, {NullValue, 2}}}
	row := func(pos int32) func(string) int64 {
		return func(col string) int64 {
			v, _ := bufs.column(col)
			return v[pos]
		}
	}
	preds := []Predicate{
		&UnaryPred{Col: "a", Op: OpEq, P: p(4)},
		&UnaryPred{Col: "a", Op: OpNe, P: p(3)},
		&UnaryPred{Col: "a", Op: OpLt, P: p(9)},
		&UnaryPred{Col: "a", Op: OpLe, P: p(4)},
		&UnaryPred{Col: "a", Op: OpGt, P: p(1)},
		&UnaryPred{Col: "a", Op: OpGe, P: p(4)},
		&UnaryPred{Col: "a", Op: OpLt, P: p(PosInf)},
		&UnaryPred{Col: "a", Op: OpLe, P: p(PosInf)},
		&UnaryPred{Col: "a", Op: OpGt, P: p(NegInf)},
		&UnaryPred{Col: "a", Op: OpGe, P: p(NegInf)},
		&UnaryPred{Col: "a", Op: OpNe, P: p(NullValue)},
		&UnaryPred{Col: "a", Op: OpIn, P: plist(4, NullValue)},
		&UnaryPred{Col: "a", Op: OpNotIn, P: plist(1, 3)},
		&UnaryPred{Col: "a", Op: OpLike, P: plist(NullValue, 4)},
		&UnaryPred{Col: "a", Op: OpNotLike, P: plist(7)},
		&ArithPred{Expr: sub, Op: OpGt, P: p(1)},
		&ArithPred{Expr: sub, Op: OpGe, P: p(NegInf)},
		&ArithPred{Expr: sub, Op: OpLt, P: p(3)},
		&ArithPred{Expr: sub, Op: OpLe, P: p(PosInf)},
		&ArithPred{Expr: sub, Op: OpNe, P: p(NullValue)},
		&ArithPred{Expr: BinExpr{Op: Div, L: ColRef{Col: "a"}, R: ConstExpr{V: 0}}, Op: OpLt, P: p(1)},
	}
	for _, pred := range preds {
		bound, err := BindPred(pred, bufs, false)
		if err != nil {
			t.Fatalf("%s: bind: %v", pred, err)
		}
		if got := bound.FilterBatch([]int32{0, 1}); len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: FilterBatch kept %v, want [1]: only the non-NULL cell", pred, got)
		}
		if bound.EvalRow(0) || !bound.EvalRow(1) {
			t.Errorf("%s: EvalRow = %v, %v, want false, true", pred, bound.EvalRow(0), bound.EvalRow(1))
		}
		if pred.EvalPred(row(0), false) || !pred.EvalPred(row(1), false) {
			t.Errorf("%s: EvalPred = %v, %v, want false, true", pred, pred.EvalPred(row(0), false), pred.EvalPred(row(1), false))
		}
	}
}

// TestEvalBatchMatchesEvalArith: a bound expression's batch form writes, for
// every position of a selection vector, the value EvalArith computes there —
// over NULL operands, division by zero and selection vectors longer than one
// arithmetic block, dense and sparse.
func TestEvalBatchMatchesEvalArith(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(3))
	cols := map[string][]int64{"a": make([]int64, n), "b": make([]int64, n)}
	for _, c := range cols {
		for i := range c {
			if c[i] = rng.Int63n(7) - 3; rng.Intn(9) == 0 {
				c[i] = NullValue
			}
		}
	}
	l := layout{cols: cols}
	bufs := l.buffers()
	a, b := ColRef{Col: "a"}, ColRef{Col: "b"}
	exprs := []ArithExpr{
		a,
		ConstExpr{V: 5},
		BinExpr{Op: Add, L: a, R: b},
		BinExpr{Op: Sub, L: a, R: ConstExpr{V: NullValue}},
		BinExpr{Op: Mul, L: BinExpr{Op: Sub, L: a, R: b}, R: b},
		BinExpr{Op: Div, L: a, R: b},
		BinExpr{Op: Div, L: BinExpr{Op: Div, L: a, R: ConstExpr{V: 0}}, R: BinExpr{Op: Add, L: b, R: a}},
	}
	for _, every := range []int{1, 3} {
		var sel []int32
		for i := int32(0); i < n; i++ {
			if rng.Intn(every) == 0 {
				sel = append(sel, i)
			}
		}
		for _, e := range exprs {
			bound, err := BindArith(e, bufs)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(sel))
			bound.EvalBatch(got, sel)
			for j, pos := range sel {
				if want := e.EvalArith(l.rowFunc(pos)); got[j] != want {
					t.Fatalf("%s at %d: EvalBatch %d, EvalArith %d", e, pos, got[j], want)
				}
			}
		}
	}
}
