package relalg

import (
	"fmt"
	"strings"
)

// CompareOp is the comparator of a unary or arithmetic predicate
// (Section 2.2: =, <>, <, >, <=, >=, (not) in, (not) like).
type CompareOp int

const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn
	OpNotIn
	OpLike
	OpNotLike
)

func (o CompareOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIn:
		return "in"
	case OpNotIn:
		return "not in"
	case OpLike:
		return "like"
	case OpNotLike:
		return "not like"
	}
	return fmt.Sprintf("CompareOp(%d)", int(o))
}

// Negate returns the complementary comparator (De Morgan on literals).
func (o CompareOp) Negate() CompareOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	case OpIn:
		return OpNotIn
	case OpNotIn:
		return OpIn
	case OpLike:
		return OpNotLike
	case OpNotLike:
		return OpLike
	}
	panic("relalg: unknown comparator")
}

// IsSetValued reports whether the comparator takes a value set rather than a
// scalar parameter.
func (o CompareOp) IsSetValued() bool {
	switch o {
	case OpIn, OpNotIn, OpLike, OpNotLike:
		return true
	}
	return false
}

// Predicate is the AST of a selection predicate. Leaves are unary or
// arithmetic comparisons; interior nodes are AND / OR / NOT. Evaluation is
// over cardinality-space row values.
type Predicate interface {
	// EvalPred evaluates the predicate for one row. orig selects the
	// original (trace-time) parameter values instead of the instantiated
	// ones.
	EvalPred(row func(col string) int64, orig bool) bool
	// Columns appends the referenced column names to dst and returns it.
	Columns(dst []string) []string
	// Params appends the parameters of the predicate to dst and returns it.
	Params(dst []*Param) []*Param
	String() string
}

// UnaryPred is a single-column comparison A • p (a "literal" in the paper's
// CNF vocabulary).
type UnaryPred struct {
	Col string
	Op  CompareOp
	P   *Param
}

func (u *UnaryPred) EvalPred(row func(string) int64, orig bool) bool {
	v := row(u.Col)
	if v == NullValue {
		return false // SQL's three-valued logic: a NULL cell satisfies no comparison
	}
	if u.Op.IsSetValued() {
		in := contains(u.P.GetList(orig), v)
		if u.Op == OpIn || u.Op == OpLike {
			return in
		}
		return !in
	}
	return compare(v, u.Op, u.P.Get(orig))
}

func (u *UnaryPred) Columns(dst []string) []string { return append(dst, u.Col) }
func (u *UnaryPred) Params(dst []*Param) []*Param  { return append(dst, u.P) }
func (u *UnaryPred) String() string {
	return fmt.Sprintf("%s %s %s", u.Col, u.Op, u.P)
}

// ArithPred is an arithmetic comparison g(A_i,...,A_k) • p over multiple
// non-key columns of one table.
type ArithPred struct {
	Expr ArithExpr
	Op   CompareOp // <, >, <=, >= per Section 2.2
	P    *Param
}

func (a *ArithPred) EvalPred(row func(string) int64, orig bool) bool {
	return compare(a.Expr.EvalArith(row), a.Op, a.P.Get(orig))
}

func (a *ArithPred) Columns(dst []string) []string { return a.Expr.Columns(dst) }
func (a *ArithPred) Params(dst []*Param) []*Param  { return append(dst, a.P) }
func (a *ArithPred) String() string {
	return fmt.Sprintf("%s %s %s", a.Expr, a.Op, a.P)
}

// AndPred is a conjunction of predicates.
type AndPred struct{ Kids []Predicate }

func (a *AndPred) EvalPred(row func(string) int64, orig bool) bool {
	for _, k := range a.Kids {
		if !k.EvalPred(row, orig) {
			return false
		}
	}
	return true
}

func (a *AndPred) Columns(dst []string) []string {
	for _, k := range a.Kids {
		dst = k.Columns(dst)
	}
	return dst
}

func (a *AndPred) Params(dst []*Param) []*Param {
	for _, k := range a.Kids {
		dst = k.Params(dst)
	}
	return dst
}

func (a *AndPred) String() string { return joinPreds(a.Kids, " and ") }

// OrPred is a disjunction of predicates.
type OrPred struct{ Kids []Predicate }

func (o *OrPred) EvalPred(row func(string) int64, orig bool) bool {
	for _, k := range o.Kids {
		if k.EvalPred(row, orig) {
			return true
		}
	}
	return false
}

func (o *OrPred) Columns(dst []string) []string {
	for _, k := range o.Kids {
		dst = k.Columns(dst)
	}
	return dst
}

func (o *OrPred) Params(dst []*Param) []*Param {
	for _, k := range o.Kids {
		dst = k.Params(dst)
	}
	return dst
}

func (o *OrPred) String() string { return joinPreds(o.Kids, " or ") }

// NotPred negates a predicate. It only appears transiently: ToCNF pushes
// negations down to the comparators.
type NotPred struct{ Kid Predicate }

func (n *NotPred) EvalPred(row func(string) int64, orig bool) bool {
	return !n.Kid.EvalPred(row, orig)
}
func (n *NotPred) Columns(dst []string) []string { return n.Kid.Columns(dst) }
func (n *NotPred) Params(dst []*Param) []*Param  { return n.Kid.Params(dst) }
func (n *NotPred) String() string                { return "not (" + n.Kid.String() + ")" }

// TruePred matches every row; it is the identity of conjunction.
type TruePred struct{}

func (TruePred) EvalPred(func(string) int64, bool) bool { return true }
func (TruePred) Columns(dst []string) []string          { return dst }
func (TruePred) Params(dst []*Param) []*Param           { return dst }
func (TruePred) String() string                         { return "true" }

func joinPreds(kids []Predicate, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}

// compare evaluates v • p honoring the NULL and infinity sentinels of
// Table 3: "= NULL" is false for every row, "<> NULL" is true for every row,
// and ±infinity bound the whole cardinality space. A NULL cell v (an outer
// join's pad) satisfies no comparison, as in SQL's three-valued logic.
func compare(v int64, op CompareOp, p int64) bool {
	if v == NullValue {
		return false
	}
	if p == NullValue {
		return op == OpNe || op == OpNotIn || op == OpNotLike
	}
	switch op {
	case OpEq:
		return v == p
	case OpNe:
		return v != p
	case OpLt:
		return v < p
	case OpLe:
		return v <= p
	case OpGt:
		return v > p
	case OpGe:
		return v >= p
	}
	panic(fmt.Sprintf("relalg: comparator %v requires a value set", op))
}

func contains(list []int64, v int64) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// Negate returns the logical complement of p with negations pushed onto the
// comparators (the query rewriter of Section 3 uses this for the
// ¬(P_S ∨ P_T) = ¬P_S ∧ ¬P_T transformation). The returned predicate shares
// p's Param objects: the complement of a literal keeps the same parameter
// value under the flipped comparator.
func Negate(p Predicate) Predicate {
	switch n := p.(type) {
	case *UnaryPred:
		return &UnaryPred{Col: n.Col, Op: n.Op.Negate(), P: n.P}
	case *ArithPred:
		return &ArithPred{Expr: n.Expr, Op: n.Op.Negate(), P: n.P}
	case *AndPred:
		kids := make([]Predicate, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = Negate(k)
		}
		return &OrPred{Kids: kids}
	case *OrPred:
		kids := make([]Predicate, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = Negate(k)
		}
		return &AndPred{Kids: kids}
	case *NotPred:
		return n.Kid
	case TruePred:
		// The complement of TRUE cannot be represented as a satisfiable
		// literal; callers never negate TruePred in practice.
		panic("relalg: cannot negate TruePred")
	}
	panic(fmt.Sprintf("relalg: Negate: unknown predicate %T", p))
}

// CNF holds a predicate in conjunctive normal form: a conjunction of
// clauses, each a disjunction of literals (UnaryPred or ArithPred).
type CNF struct {
	Clauses [][]Predicate // inner slices hold only literal predicates
}

// Pred re-assembles the CNF into a Predicate tree.
func (c CNF) Pred() Predicate {
	if len(c.Clauses) == 0 {
		return TruePred{}
	}
	ands := make([]Predicate, 0, len(c.Clauses))
	for _, cl := range c.Clauses {
		switch len(cl) {
		case 0:
			// An empty clause is unsatisfiable; callers validate before.
			panic("relalg: empty CNF clause")
		case 1:
			ands = append(ands, cl[0])
		default:
			ands = append(ands, &OrPred{Kids: append([]Predicate(nil), cl...)})
		}
	}
	if len(ands) == 1 {
		return ands[0]
	}
	return &AndPred{Kids: ands}
}

// ToCNF converts an arbitrary predicate tree to conjunctive normal form by
// pushing NOT onto comparators and distributing OR over AND (Section 2.2
// assumes CNF; any predicate can be brought to it). Literal Params are
// shared, not copied.
func ToCNF(p Predicate) CNF {
	return CNF{Clauses: cnfClauses(pushNot(p, false))}
}

// pushNot eliminates NotPred by propagating the negation flag.
func pushNot(p Predicate, neg bool) Predicate {
	switch n := p.(type) {
	case *UnaryPred:
		if neg {
			return &UnaryPred{Col: n.Col, Op: n.Op.Negate(), P: n.P}
		}
		return n
	case *ArithPred:
		if neg {
			return &ArithPred{Expr: n.Expr, Op: n.Op.Negate(), P: n.P}
		}
		return n
	case *AndPred:
		kids := make([]Predicate, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = pushNot(k, neg)
		}
		if neg {
			return &OrPred{Kids: kids}
		}
		return &AndPred{Kids: kids}
	case *OrPred:
		kids := make([]Predicate, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = pushNot(k, neg)
		}
		if neg {
			return &AndPred{Kids: kids}
		}
		return &OrPred{Kids: kids}
	case *NotPred:
		return pushNot(n.Kid, !neg)
	case TruePred:
		if neg {
			panic("relalg: cannot negate TruePred")
		}
		return n
	}
	panic(fmt.Sprintf("relalg: pushNot: unknown predicate %T", p))
}

// cnfClauses converts a NOT-free tree into CNF clause lists, distributing OR
// over AND.
func cnfClauses(p Predicate) [][]Predicate {
	switch n := p.(type) {
	case *UnaryPred, *ArithPred:
		return [][]Predicate{{p}}
	case TruePred:
		return nil
	case *AndPred:
		var out [][]Predicate
		for _, k := range n.Kids {
			out = append(out, cnfClauses(k)...)
		}
		return out
	case *OrPred:
		// Cross-product of the children's clause sets.
		acc := [][]Predicate{{}}
		for _, k := range n.Kids {
			kc := cnfClauses(k)
			if len(kc) == 0 { // child is TRUE: whole disjunction is TRUE
				return nil
			}
			var next [][]Predicate
			for _, a := range acc {
				for _, c := range kc {
					merged := make([]Predicate, 0, len(a)+len(c))
					merged = append(merged, a...)
					merged = append(merged, c...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc
	}
	panic(fmt.Sprintf("relalg: cnfClauses: unknown predicate %T", p))
}
