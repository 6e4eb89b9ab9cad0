package relalg

import (
	"fmt"
	"math"
)

// This file is the batch/bound evaluation path of predicates: a predicate is
// compiled once per operator against Buffers (each referenced column bound
// to the buffer its values are filled or gathered into), and then evaluated
// over selection vectors of buffer positions with no per-row closures or
// interface dispatch on the leaves. EvalPred remains as the row-at-a-time
// oracle the bound path is tested against; both evaluate the exact same
// semantics, including the NULL and ±infinity sentinel conventions of
// Table 3.

// Buffers binds column Names[k] to Vals[k], read at positions directly.
// The buffers are typically refilled block by block (gathered or filled
// values of a block of rows, an outer join's null pad already written as
// NullValue), so a predicate bound once evaluates every block.
type Buffers struct {
	Names []string
	Vals  [][]int64
}

func (b Buffers) column(col string) ([]int64, error) {
	for k, n := range b.Names {
		if n == col {
			return b.Vals[k], nil
		}
	}
	return nil, fmt.Errorf("relalg: column %q has no buffer to bind", col)
}

// BoundPred is a predicate compiled against one relation.
type BoundPred interface {
	// FilterBatch keeps the positions of sel that satisfy the predicate,
	// compacting in place, and returns the shortened slice.
	FilterBatch(sel []int32) []int32
	// EvalRow evaluates the predicate at a single position.
	EvalRow(pos int32) bool
}

// BoundArith is an arithmetic expression compiled against one relation.
type BoundArith interface {
	// EvalRow evaluates the expression at a single position.
	EvalRow(pos int32) int64
	// EvalBatch writes the expression's value at position sel[j] into
	// dst[j] for every j < len(sel); dst needs len(sel) room. An operator
	// keeps its right operand's values in scratch of its own, arithBlock
	// long, so a bound expression — like a bound predicate — is used by one
	// goroutine at a time.
	EvalBatch(dst []int64, sel []int32)
}

// BindPred compiles p for batch evaluation. orig selects original versus
// instantiated parameter values, which are frozen into the bound form (a
// bound predicate is only valid for one operator execution).
func BindPred(p Predicate, b Buffers, orig bool) (BoundPred, error) {
	switch n := p.(type) {
	case *UnaryPred:
		col, err := b.column(n.Col)
		if err != nil {
			return nil, err
		}
		if n.Op.IsSetValued() {
			return newBoundSet(col, n.P.GetList(orig), n.Op == OpIn || n.Op == OpLike), nil
		}
		// Table 3: "= NULL" matches nothing, "<> NULL" every non-NULL cell.
		t, ok := newRangeTest(n.Op, n.P.Get(orig))
		if !ok {
			return boundConst(false), nil
		}
		return &boundCompare{col: col, t: t}, nil

	case *ArithPred:
		expr, err := BindArith(n.Expr, b)
		if err != nil {
			return nil, err
		}
		if n.Op.IsSetValued() {
			return nil, fmt.Errorf("relalg: comparator %v requires a value set", n.Op)
		}
		t, ok := newRangeTest(n.Op, n.P.Get(orig))
		if !ok {
			return boundConst(false), nil
		}
		return &boundArithCompare{expr: expr, t: t}, nil

	case *AndPred:
		kids, err := bindKids(n.Kids, b, orig)
		if err != nil {
			return nil, err
		}
		return &boundAnd{kids: kids}, nil

	case *OrPred:
		kids, err := bindKids(n.Kids, b, orig)
		if err != nil {
			return nil, err
		}
		return &boundOr{kids: kids}, nil

	case *NotPred:
		kid, err := BindPred(n.Kid, b, orig)
		if err != nil {
			return nil, err
		}
		return &boundNot{kid: kid}, nil

	case TruePred:
		return boundConst(true), nil
	}
	return nil, fmt.Errorf("relalg: BindPred: unknown predicate %T", p)
}

func bindKids(kids []Predicate, b Buffers, orig bool) ([]BoundPred, error) {
	out := make([]BoundPred, len(kids))
	for i, k := range kids {
		bk, err := BindPred(k, b, orig)
		if err != nil {
			return nil, err
		}
		out[i] = bk
	}
	return out, nil
}

// BindArith compiles an arithmetic expression for positional evaluation.
func BindArith(e ArithExpr, b Buffers) (BoundArith, error) {
	switch n := e.(type) {
	case ColRef:
		col, err := b.column(n.Col)
		if err != nil {
			return nil, err
		}
		return boundColRef(col), nil
	case ConstExpr:
		return boundConstExpr(n.V), nil
	case BinExpr:
		l, err := BindArith(n.L, b)
		if err != nil {
			return nil, err
		}
		r, err := BindArith(n.R, b)
		if err != nil {
			return nil, err
		}
		return &boundBin{op: n.Op, l: l, r: r}, nil
	}
	return nil, fmt.Errorf("relalg: BindArith: unknown expression %T", e)
}

// b2i is 1 where b holds, else 0. The compiler turns it into a flag
// set, so a kernel that writes every candidate and advances its output index
// by b2i(test) keeps a row without a branch: its cost is the same at any
// selectivity.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rangeTest is a comparison with a non-NULL parameter (or "<> NULL") as one
// unsigned range check: v passes when v-lo, wrapping, is at most span — v
// lies in [lo, lo+span], a range that never holds NULL — and v differs from
// ex. Every comparator of Table 3 is one: "<> p" is [NegInf, PosInf] without
// p, the others have ex NULL, which no range holds. A NULL cell therefore
// satisfies none, as in SQL's three-valued logic.
type rangeTest struct {
	lo   int64
	span uint64
	ex   int64
}

// newRangeTest returns v • p as a rangeTest, or false when no cell satisfies
// it: "= NULL" and the other comparators against NULL, "< NegInf", "> PosInf".
func newRangeTest(op CompareOp, p int64) (rangeTest, bool) {
	if p == NullValue && op != OpNe {
		return rangeTest{}, false
	}
	switch op {
	case OpEq:
		return rangeTest{lo: p, ex: NullValue}, true
	case OpNe:
		return rangeTest{lo: NegInf, span: math.MaxUint64 - 1, ex: p}, true
	case OpLt:
		return rangeTest{lo: NegInf, span: uint64(p - 1 - NegInf), ex: NullValue}, p != NegInf
	case OpLe:
		return rangeTest{lo: NegInf, span: uint64(p - NegInf), ex: NullValue}, true
	case OpGt:
		return rangeTest{lo: p + 1, span: uint64(PosInf - p - 1), ex: NullValue}, p != PosInf
	case OpGe:
		return rangeTest{lo: p, span: uint64(PosInf - p), ex: NullValue}, true
	}
	panic(fmt.Sprintf("relalg: comparator %v requires a value set", op))
}

// pass is 1 where v passes, else 0.
func (t rangeTest) pass(v int64) int {
	return b2i(uint64(v-t.lo) <= t.span) & b2i(v != t.ex)
}

// boundCompare is a scalar column comparison. FilterBatch writes every
// candidate position and advances by the test's 0/1 outcome: no branch on
// the cell's value, so no misprediction near 50 % selectivity.
type boundCompare struct {
	col []int64
	t   rangeTest
}

func (u *boundCompare) FilterBatch(sel []int32) []int32 {
	col, t := u.col, u.t
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += t.pass(col[i])
	}
	return sel[:k]
}

func (u *boundCompare) EvalRow(pos int32) bool { return u.t.pass(u.col[pos]) == 1 }

// boundSet is a set-valued comparison (IN / LIKE after expansion). NULL
// never counts as a member: a NULL cell satisfies neither the set test nor
// its negation, and a NULL in the list matches nothing. A list of more than
// four values whose span fits maxSetSpan is a bitset over [lo, lo+span). Any
// other list is ORed value by value, padded with NULL to at least four.
type boundSet struct {
	col  []int64
	flip int // 0 for IN/LIKE, 1 for the negations
	lo   int64
	span uint64
	bits []uint64 // nil: test list
	list []int64  // at least four values
}

// maxSetSpan caps a set's bitset at 128 KiB.
const maxSetSpan = 1 << 20

func newBoundSet(col, list []int64, want bool) *boundSet {
	s := &boundSet{col: col, flip: 1 - b2i(want)}
	var vals []int64
	lo, hi := PosInf, NegInf
	for _, v := range list {
		if v != NullValue {
			vals = append(vals, v)
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if len(vals) > 4 && uint64(hi-lo) < maxSetSpan {
		s.lo, s.span = lo, uint64(hi-lo)+1
		s.bits = make([]uint64, (s.span+63)/64)
		for _, v := range vals {
			b := uint64(v - lo)
			s.bits[b>>6] |= 1 << (b & 63)
		}
		return s
	}
	s.list = make([]int64, max(4, len(vals)))
	for i := copy(s.list, vals); i < len(s.list); i++ {
		s.list[i] = NullValue
	}
	return s
}

// inBits is 1 where v's bit is set. A value outside the span reads bit 0,
// masked off.
func (s *boundSet) inBits(v int64) int {
	b := uint64(v - s.lo)
	in := b2i(b < s.span)
	b &= -uint64(in)
	return int(s.bits[b>>6]>>(b&63)) & in
}

// inList is 1 where v is in the list (or is NULL).
func (s *boundSet) inList(v int64) int {
	h := 0
	for _, x := range s.list {
		h |= b2i(v == x)
	}
	return h
}

func (s *boundSet) FilterBatch(sel []int32) []int32 {
	col, flip := s.col, s.flip
	k := 0
	if s.bits != nil {
		for _, i := range sel {
			v := col[i]
			sel[k] = i
			k += (s.inBits(v) ^ flip) & b2i(v != NullValue)
		}
		return sel[:k]
	}
	// The first four values are compared unrolled, any further ones (a
	// sparse list of more than four) in a loop.
	l0, l1, l2, l3, rest := s.list[0], s.list[1], s.list[2], s.list[3], s.list[4:]
	for _, i := range sel {
		v := col[i]
		h := b2i(v == l0) | b2i(v == l1) | b2i(v == l2) | b2i(v == l3)
		for _, x := range rest {
			h |= b2i(v == x)
		}
		sel[k] = i
		k += (h ^ flip) & b2i(v != NullValue)
	}
	return sel[:k]
}

func (s *boundSet) EvalRow(pos int32) bool {
	v := s.col[pos]
	in := 0
	if s.bits != nil {
		in = s.inBits(v)
	} else {
		in = s.inList(v)
	}
	return (in^s.flip)&b2i(v != NullValue) == 1
}

// arithBlock is how many positions an arithmetic comparison evaluates at
// once: its scratch, and every operator's, stays this long whatever the
// selection vector's length.
const arithBlock = 256

// boundArithCompare compares a bound arithmetic expression with a parameter:
// the expression is evaluated for a block of the selection vector at a time
// into the predicate's scratch (BoundArith.EvalBatch), then the block is
// compacted by the same range test as a column comparison.
type boundArithCompare struct {
	expr BoundArith
	t    rangeTest
	vals []int64
}

func (a *boundArithCompare) FilterBatch(sel []int32) []int32 {
	if a.vals == nil {
		a.vals = make([]int64, arithBlock)
	}
	t := a.t
	k := 0
	for lo := 0; lo < len(sel); lo += arithBlock {
		blk := sel[lo:min(lo+arithBlock, len(sel))]
		vals := a.vals[:len(blk)]
		a.expr.EvalBatch(vals, blk)
		for j, i := range blk {
			sel[k] = i
			k += t.pass(vals[j])
		}
	}
	return sel[:k]
}

func (a *boundArithCompare) EvalRow(pos int32) bool { return a.t.pass(a.expr.EvalRow(pos)) == 1 }

// boundAnd chains its children's batch filters over the shrinking selection
// vector: each conjunct only touches the survivors of the previous one.
type boundAnd struct{ kids []BoundPred }

func (a *boundAnd) FilterBatch(sel []int32) []int32 {
	for _, k := range a.kids {
		if len(sel) == 0 {
			break
		}
		sel = k.FilterBatch(sel)
	}
	return sel
}

func (a *boundAnd) EvalRow(pos int32) bool {
	for _, k := range a.kids {
		if !k.EvalRow(pos) {
			return false
		}
	}
	return true
}

// boundOr evaluates row-wise with short-circuiting; a batch union would need
// scratch marks and disjunctions are rare and narrow in the benchmark
// workloads. The row's outcome still advances the output index without a
// branch.
type boundOr struct{ kids []BoundPred }

func (o *boundOr) FilterBatch(sel []int32) []int32 {
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += b2i(o.EvalRow(i))
	}
	return sel[:k]
}

func (o *boundOr) EvalRow(pos int32) bool {
	for _, k := range o.kids {
		if k.EvalRow(pos) {
			return true
		}
	}
	return false
}

type boundNot struct{ kid BoundPred }

func (n *boundNot) FilterBatch(sel []int32) []int32 {
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += 1 - b2i(n.kid.EvalRow(i))
	}
	return sel[:k]
}

func (n *boundNot) EvalRow(pos int32) bool { return !n.kid.EvalRow(pos) }

// boundConst is a predicate decided at bind time (TruePred, NULL-parameter
// comparisons).
type boundConst bool

func (c boundConst) FilterBatch(sel []int32) []int32 {
	if c {
		return sel
	}
	return sel[:0]
}

func (c boundConst) EvalRow(int32) bool { return bool(c) }

type boundColRef []int64

func (c boundColRef) EvalRow(pos int32) int64 { return c[pos] }

func (c boundColRef) EvalBatch(dst []int64, sel []int32) {
	dst = dst[:len(sel)]
	for j, i := range sel {
		dst[j] = c[i]
	}
}

type boundConstExpr int64

func (c boundConstExpr) EvalRow(int32) int64 { return int64(c) }

func (c boundConstExpr) EvalBatch(dst []int64, sel []int32) {
	for j := range sel {
		dst[j] = int64(c)
	}
}

// boundBin mirrors BinExpr: integer arithmetic with division by zero
// evaluating to zero and a NULL operand making the result NULL. Its batch
// form evaluates the left operand into dst and the right one into its own
// scratch, arithBlock positions at a time.
type boundBin struct {
	op   ArithOp
	l, r BoundArith
	tmp  []int64
}

func (b *boundBin) EvalRow(pos int32) int64 {
	return arith(b.op, b.l.EvalRow(pos), b.r.EvalRow(pos))
}

func (b *boundBin) EvalBatch(dst []int64, sel []int32) {
	if b.tmp == nil {
		b.tmp = make([]int64, arithBlock)
	}
	for lo := 0; lo < len(sel); lo += arithBlock {
		hi := min(lo+arithBlock, len(sel))
		l, r := dst[lo:hi], b.tmp[:hi-lo]
		b.l.EvalBatch(l, sel[lo:hi])
		b.r.EvalBatch(r, sel[lo:hi])
		arithBatch(b.op, l, r)
	}
}

// arithBatch sets l[j] to arith(op, l[j], r[j]) for every j, without a
// branch on the values: a NULL operand masks the result to NULL, and a zero
// divisor divides by one and masks the quotient to zero.
func arithBatch(op ArithOp, l, r []int64) {
	r = r[:len(l)]
	switch op {
	case Add:
		for j, x := range l {
			l[j] = nullIfEither(x+r[j], x, r[j])
		}
	case Sub:
		for j, x := range l {
			l[j] = nullIfEither(x-r[j], x, r[j])
		}
	case Mul:
		for j, x := range l {
			l[j] = nullIfEither(x*r[j], x, r[j])
		}
	case Div:
		for j, x := range l {
			y := r[j]
			nz := int64(b2i(y != 0))
			l[j] = nullIfEither(x/(y|(1-nz))*nz, x, y)
		}
	default:
		panic("relalg: unknown arithmetic operator")
	}
}

// nullIfEither is v, or NULL where x or y is NULL.
func nullIfEither(v, x, y int64) int64 {
	m := -int64(b2i(x == NullValue) | b2i(y == NullValue))
	return v&^m | NullValue&m
}
