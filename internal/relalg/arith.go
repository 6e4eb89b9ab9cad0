package relalg

import (
	"fmt"
	"strings"
)

// ArithOp is a binary arithmetic operator inside an arithmetic predicate's
// function g(A_i, ..., A_k) (Section 2.2).
type ArithOp int

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return fmt.Sprintf("ArithOp(%d)", int(o))
}

// ArithExpr is an arithmetic expression over the non-key columns of a single
// table, evaluated in cardinality space.
type ArithExpr interface {
	// EvalArith computes the expression for one row; row maps a column
	// name to its cardinality-space value.
	EvalArith(row func(col string) int64) int64
	// Columns appends the referenced column names to dst and returns it.
	Columns(dst []string) []string
	String() string
}

// ColRef references a column inside an arithmetic expression.
type ColRef struct{ Col string }

func (c ColRef) EvalArith(row func(string) int64) int64 { return row(c.Col) }
func (c ColRef) Columns(dst []string) []string          { return append(dst, c.Col) }
func (c ColRef) String() string                         { return c.Col }

// ConstExpr is an integer literal inside an arithmetic expression.
type ConstExpr struct{ V int64 }

func (c ConstExpr) EvalArith(func(string) int64) int64 { return c.V }
func (c ConstExpr) Columns(dst []string) []string      { return dst }
func (c ConstExpr) String() string                     { return fmt.Sprintf("%d", c.V) }

// BinExpr combines two arithmetic expressions with an operator. Division is
// integer division with divide-by-zero evaluating to zero, which keeps the
// parameter-search space total. A NULL operand makes the result NULL.
type BinExpr struct {
	Op   ArithOp
	L, R ArithExpr
}

func (b BinExpr) EvalArith(row func(string) int64) int64 {
	return arith(b.Op, b.L.EvalArith(row), b.R.EvalArith(row))
}

// arith applies op to l and r: the one definition of BinExpr's arithmetic,
// bound or not.
func arith(op ArithOp, l, r int64) int64 {
	if l == NullValue || r == NullValue {
		return NullValue
	}
	switch op {
	case Add:
		return l + r
	case Sub:
		return l - r
	case Mul:
		return l * r
	case Div:
		if r == 0 {
			return 0
		}
		return l / r
	}
	panic("relalg: unknown arithmetic operator")
}

func (b BinExpr) Columns(dst []string) []string {
	return b.R.Columns(b.L.Columns(dst))
}

func (b BinExpr) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteString(b.L.String())
	sb.WriteString(b.Op.String())
	sb.WriteString(b.R.String())
	sb.WriteByte(')')
	return sb.String()
}
