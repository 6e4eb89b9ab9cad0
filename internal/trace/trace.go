// Package trace is Mirage's workload parser (Fig. 4): it executes query
// templates on the "in-production" database and labels every operator view
// with its observed cardinality, producing the annotated query templates the
// generators consume. For join views it derives the uniform JCC/JDC
// constraint pair of Table 2, and it converts projection cardinality
// constraints on foreign-key columns into join distinct constraints on the
// child join view (Section 2.2).
package trace

import (
	"fmt"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/storage"
)

// Annotator labels templates by executing them on one database.
type Annotator struct {
	eng *engine.Engine
	// last is the template AnnotateAQT counted last and memo what counting it
	// left behind: the trees of its rewritten forest repeat its subtrees.
	last *relalg.AQT
	memo *engine.CountMemo
}

// New builds an annotator over the original database.
func New(db *storage.DB) (*Annotator, error) {
	eng, err := engine.New(db)
	if err != nil {
		return nil, err
	}
	return &Annotator{eng: eng}, nil
}

// Engine exposes the underlying engine, so whoever runs the annotator can
// route its telemetry (engine.Engine.SetRegistry).
func (a *Annotator) Engine() *engine.Engine { return a.eng }

// AnnotateAQT counts the template with its original parameter values
// (engine.Count: no join is materialized where per-row multiplicities
// suffice) and writes the observed cardinality constraints onto every view.
func (a *Annotator) AnnotateAQT(q *relalg.AQT) error {
	a.last, a.memo = q, &engine.CountMemo{}
	return a.annotate(q, a.memo)
}

// AnnotateForest labels every tree of a rewritten generation forest. Counting
// reuses what annotating the forest's template left, when that was the last
// template this annotator annotated.
func (a *Annotator) AnnotateForest(f *rewrite.Forest) error {
	memo := a.memo
	if f.Query != a.last {
		memo = &engine.CountMemo{}
	}
	a.last, a.memo = nil, nil
	for i, tree := range f.Trees {
		q := &relalg.AQT{Name: fmt.Sprintf("%s#%d", f.Query.Name, i), Root: tree}
		if err := a.annotate(q, memo); err != nil {
			return err
		}
	}
	return nil
}

func (a *Annotator) annotate(q *relalg.AQT, memo *engine.CountMemo) error {
	res, err := a.eng.Count(q, true, memo)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var annotate func(v *relalg.View) error
	annotate = func(v *relalg.View) error {
		for _, in := range v.Inputs {
			if err := annotate(in); err != nil {
				return err
			}
		}
		st, ok := res.Stats[v]
		if !ok {
			return fmt.Errorf("trace: %s: view %s was not executed", q.Name, v)
		}
		v.Card = st.Card
		if v.Kind == relalg.JoinView {
			left, right := res.Stats[v.Inputs[0]], res.Stats[v.Inputs[1]]
			v.JCC, v.JDC = relalg.SolveJoinConstraints(v.Join.Type, st.Card, left.Card, right.Card, st.JCC, st.JDC)
		}
		// PCC → JDC: a foreign-key projection constrains the distinct
		// matched keys of its child join (virtual joins included) — but
		// only when the child joins on the projected column; otherwise the
		// rewriter must have inserted a virtual join.
		if v.Kind == relalg.ProjectView && v.Inputs[0].Kind == relalg.JoinView &&
			v.Inputs[0].Join.FKCol == v.ProjCol {
			v.Inputs[0].JDC = st.Card
		}
		return nil
	}
	return annotate(q.Root)
}
