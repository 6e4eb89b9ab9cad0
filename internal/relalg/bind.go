package relalg

import "fmt"

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
	EvalRow(pos int32) int64
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
			return &boundSet{col: col, list: n.P.GetList(orig),
				want: n.Op == OpIn || n.Op == OpLike}, nil
		}
		pv := n.P.Get(orig)
		if pv == NullValue && n.Op != OpNe {
			// Table 3: "= NULL" matches nothing, "<> NULL" every non-NULL
			// cell (boundCompare's OpNe loop).
			return boundConst(false), nil
		}
		return &boundCompare{col: col, op: n.Op, p: pv}, nil

	case *ArithPred:
		expr, err := BindArith(n.Expr, b)
		if err != nil {
			return nil, err
		}
		if n.Op.IsSetValued() {
			return nil, fmt.Errorf("relalg: comparator %v requires a value set", n.Op)
		}
		return &boundArithCompare{expr: expr, op: n.Op, p: n.P.Get(orig)}, nil

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

// boundCompare is a scalar column comparison with a non-NULL parameter (or
// "<> NULL"). The per-comparator loops keep the hot path branch-predictable:
// one comparison and one append per row, no interface dispatch. A NULL cell
// satisfies no comparison: it fails = > >= against any non-NULL parameter
// by its value, and <> < <= by an explicit check.
type boundCompare struct {
	col []int64
	op  CompareOp
	p   int64
}

func (u *boundCompare) FilterBatch(sel []int32) []int32 {
	out := sel[:0]
	switch u.op {
	case OpEq:
		for _, i := range sel {
			if u.col[i] == u.p {
				out = append(out, i)
			}
		}
	case OpNe:
		for _, i := range sel {
			if v := u.col[i]; v != u.p && v != NullValue {
				out = append(out, i)
			}
		}
	case OpLt:
		for _, i := range sel {
			if v := u.col[i]; v < u.p && v != NullValue {
				out = append(out, i)
			}
		}
	case OpLe:
		for _, i := range sel {
			if v := u.col[i]; v <= u.p && v != NullValue {
				out = append(out, i)
			}
		}
	case OpGt:
		for _, i := range sel {
			if u.col[i] > u.p {
				out = append(out, i)
			}
		}
	case OpGe:
		for _, i := range sel {
			if u.col[i] >= u.p {
				out = append(out, i)
			}
		}
	default:
		panic(fmt.Sprintf("relalg: comparator %v requires a value set", u.op))
	}
	return out
}

func (u *boundCompare) EvalRow(pos int32) bool {
	return compare(u.col[pos], u.op, u.p)
}

// boundSet is a set-valued comparison (IN / LIKE after expansion).
type boundSet struct {
	col  []int64
	list []int64
	want bool // true for IN/LIKE, false for the negations
}

func (s *boundSet) FilterBatch(sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if v := s.col[i]; contains(s.list, v) == s.want && v != NullValue {
			out = append(out, i)
		}
	}
	return out
}

func (s *boundSet) EvalRow(pos int32) bool {
	v := s.col[pos]
	return contains(s.list, v) == s.want && v != NullValue
}

// boundArithCompare compares a bound arithmetic expression with a parameter.
type boundArithCompare struct {
	expr BoundArith
	op   CompareOp
	p    int64
}

func (a *boundArithCompare) FilterBatch(sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if compare(a.expr.EvalRow(i), a.op, a.p) {
			out = append(out, i)
		}
	}
	return out
}

func (a *boundArithCompare) EvalRow(pos int32) bool {
	return compare(a.expr.EvalRow(pos), a.op, a.p)
}

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
// workloads.
type boundOr struct{ kids []BoundPred }

func (o *boundOr) FilterBatch(sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if o.EvalRow(i) {
			out = append(out, i)
		}
	}
	return out
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
	out := sel[:0]
	for _, i := range sel {
		if !n.kid.EvalRow(i) {
			out = append(out, i)
		}
	}
	return out
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

type boundConstExpr int64

func (c boundConstExpr) EvalRow(int32) int64 { return int64(c) }

// boundBin mirrors BinExpr: integer arithmetic with division by zero
// evaluating to zero and a NULL operand making the result NULL.
type boundBin struct {
	op   ArithOp
	l, r BoundArith
}

func (b *boundBin) EvalRow(pos int32) int64 {
	return arith(b.op, b.l.EvalRow(pos), b.r.EvalRow(pos))
}
