package relalg

import (
	"fmt"
	"strings"
)

// JoinType enumerates the PK-FK join variants of Section 2.2. The left input
// of every join is the side holding the referenced primary key; the right
// input holds the referencing foreign key.
type JoinType int

const (
	EquiJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	LeftSemiJoin
	RightSemiJoin
	LeftAntiJoin
	RightAntiJoin
)

func (j JoinType) String() string {
	switch j {
	case EquiJoin:
		return "equi"
	case LeftOuterJoin:
		return "left_outer"
	case RightOuterJoin:
		return "right_outer"
	case FullOuterJoin:
		return "full_outer"
	case LeftSemiJoin:
		return "left_semi"
	case RightSemiJoin:
		return "right_semi"
	case LeftAntiJoin:
		return "left_anti"
	case RightAntiJoin:
		return "right_anti"
	}
	return fmt.Sprintf("JoinType(%d)", int(j))
}

// ParseJoinType resolves the textual names used by the plan DSL.
func ParseJoinType(s string) (JoinType, error) {
	switch s {
	case "equi", "inner":
		return EquiJoin, nil
	case "left_outer", "left":
		return LeftOuterJoin, nil
	case "right_outer", "right":
		return RightOuterJoin, nil
	case "full_outer", "full":
		return FullOuterJoin, nil
	case "left_semi", "semi":
		return LeftSemiJoin, nil
	case "right_semi":
		return RightSemiJoin, nil
	case "left_anti", "anti":
		return LeftAntiJoin, nil
	case "right_anti":
		return RightAntiJoin, nil
	}
	return 0, fmt.Errorf("relalg: unknown join type %q", s)
}

// ViewKind discriminates the query-operator views of Section 2.2.
type ViewKind int

const (
	LeafView ViewKind = iota
	SelectView
	JoinView
	ProjectView
	// AggView models a terminal aggregation. The generators place no
	// constraint on it; the engine executes it so the latency-fidelity
	// experiment (Fig. 12) exercises realistic plans.
	AggView
	// MultiView bundles several constraint-bearing roots of one template
	// (e.g. an EXISTS branch modeled as a separate join tree). Its output
	// is its last input; every input is traced and validated.
	MultiView
)

func (k ViewKind) String() string {
	switch k {
	case LeafView:
		return "leaf"
	case SelectView:
		return "select"
	case JoinView:
		return "join"
	case ProjectView:
		return "project"
	case AggView:
		return "agg"
	case MultiView:
		return "multi"
	}
	return fmt.Sprintf("ViewKind(%d)", int(k))
}

// JoinSpec describes a PK-FK join: the referenced table whose primary key is
// matched and the referencing table's foreign-key column.
type JoinSpec struct {
	Type    JoinType
	PKTable string // table providing the primary key (left input)
	FKTable string // table providing the foreign key (right input)
	FKCol   string // foreign-key column in FKTable
}

func (j *JoinSpec) String() string {
	return fmt.Sprintf("%s(%s.pk = %s.%s)", j.Type, j.PKTable, j.FKTable, j.FKCol)
}

// CardUnknown marks an unannotated cardinality.
const CardUnknown int64 = -1

// View is one node of an annotated query template: a query-operator view
// (Section 2.2) with its labeled cardinality constraints.
type View struct {
	ID   int
	Name string // optional DSL name, e.g. "s1"
	Kind ViewKind

	// LeafView: the table covered.
	Table string

	// SelectView: the predicate; Inputs[0] is the filtered view.
	Pred Predicate

	// JoinView: the join spec; Inputs[0] is the PK (left) side and
	// Inputs[1] the FK (right) side.
	Join *JoinSpec

	// ProjectView: the projected column (Mirage constrains projections on
	// foreign-key columns only, Section 2.2); Inputs[0] is the input.
	ProjTable, ProjCol string

	// AggView: optional group-by columns of Inputs[0]'s tables.
	GroupBy []string

	Inputs []*View

	// Card is the annotated output-size constraint |V| (CardUnknown when
	// the operator is not annotated).
	Card int64
	// JCC / JDC are the uniform join constraints derived for JoinViews
	// (Table 2). CardUnknown when not required by the join type.
	JCC, JDC int64
	// Virtual marks the right-semi joins inserted to convert PCCs to JDCs
	// (Fig. 2); they are dropped from the workload after generation.
	Virtual bool
}

// Tables reports the set of base tables contributing rows to the view.
func (v *View) Tables(dst []string) []string {
	switch v.Kind {
	case LeafView:
		return append(dst, v.Table)
	default:
		for _, in := range v.Inputs {
			dst = in.Tables(dst)
		}
		return dst
	}
}

// Walk visits the view tree bottom-up (inputs before the node itself).
func (v *View) Walk(fn func(*View)) {
	for _, in := range v.Inputs {
		in.Walk(fn)
	}
	fn(v)
}

// String renders the node (not the whole subtree).
func (v *View) String() string {
	label := ""
	switch v.Kind {
	case LeafView:
		label = v.Table
	case SelectView:
		label = "select " + v.Pred.String()
	case JoinView:
		label = v.Join.String()
	case ProjectView:
		label = fmt.Sprintf("project %s.%s", v.ProjTable, v.ProjCol)
	case AggView:
		label = "agg"
		if len(v.GroupBy) > 0 {
			label += " by " + strings.Join(v.GroupBy, ",")
		}
	case MultiView:
		label = "multi"
	}
	if v.Card != CardUnknown {
		label += fmt.Sprintf(" @card=%d", v.Card)
	}
	return label
}

// Format renders the whole tree, indented, for debugging and documentation.
func (v *View) Format() string {
	var sb strings.Builder
	var rec func(n *View, depth int)
	rec = func(n *View, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, in := range n.Inputs {
			rec(in, depth+1)
		}
	}
	rec(v, 0)
	return sb.String()
}

// AQT is an annotated query template (Section 2.1): a parameterized query
// plan whose operators carry cardinality constraints.
type AQT struct {
	Name string
	Root *View
}

// Views returns all views of the template bottom-up, left to right.
func (q *AQT) Views() []*View {
	var out []*View
	q.Root.Walk(func(v *View) { out = append(out, v) })
	return out
}

// Params returns the distinct parameters of the template in first-appearance
// order.
func (q *AQT) Params() []*Param {
	var out []*Param
	seen := make(map[*Param]bool)
	q.Root.Walk(func(v *View) {
		if v.Kind != SelectView {
			return
		}
		for _, p := range v.Pred.Params(nil) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	})
	return out
}

// Clone deep-copies the template's view tree. Parameters are cloned as well;
// the returned template owns its Params so that independent generators can
// instantiate them without interference.
func (q *AQT) Clone() *AQT {
	paramCopies := make(map[*Param]*Param)
	cloneParam := func(p *Param) *Param {
		if c, ok := paramCopies[p]; ok {
			return c
		}
		c := &Param{}
		*c = *p
		c.OrigList = append([]int64(nil), p.OrigList...)
		c.List = append([]int64(nil), p.List...)
		paramCopies[p] = c
		return c
	}
	var clonePred func(p Predicate) Predicate
	clonePred = func(p Predicate) Predicate {
		switch n := p.(type) {
		case *UnaryPred:
			return &UnaryPred{Col: n.Col, Op: n.Op, P: cloneParam(n.P)}
		case *ArithPred:
			return &ArithPred{Expr: n.Expr, Op: n.Op, P: cloneParam(n.P)}
		case *AndPred:
			kids := make([]Predicate, len(n.Kids))
			for i, k := range n.Kids {
				kids[i] = clonePred(k)
			}
			return &AndPred{Kids: kids}
		case *OrPred:
			kids := make([]Predicate, len(n.Kids))
			for i, k := range n.Kids {
				kids[i] = clonePred(k)
			}
			return &OrPred{Kids: kids}
		case *NotPred:
			return &NotPred{Kid: clonePred(n.Kid)}
		case TruePred:
			return n
		}
		panic(fmt.Sprintf("relalg: Clone: unknown predicate %T", p))
	}
	var cloneView func(v *View) *View
	cloneView = func(v *View) *View {
		c := &View{
			ID: v.ID, Name: v.Name, Kind: v.Kind, Table: v.Table,
			ProjTable: v.ProjTable, ProjCol: v.ProjCol,
			Card: v.Card, JCC: v.JCC, JDC: v.JDC, Virtual: v.Virtual,
			GroupBy: append([]string(nil), v.GroupBy...),
		}
		if v.Pred != nil {
			c.Pred = clonePred(v.Pred)
		}
		if v.Join != nil {
			j := *v.Join
			c.Join = &j
		}
		c.Inputs = make([]*View, len(v.Inputs))
		for i, in := range v.Inputs {
			c.Inputs[i] = cloneView(in)
		}
		return c
	}
	return &AQT{Name: q.Name, Root: cloneView(q.Root)}
}
