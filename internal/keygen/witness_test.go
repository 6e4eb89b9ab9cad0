package keygen

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// TestWitnessDerivedConstraintsProperty probes the key generator's
// soundness: constraints measured on a concrete witness database are
// satisfiable by construction. The staged solver (x local search, then the
// distinct/fresh repair) reproduces them exactly on the overwhelming
// majority of random instances; jointly-coupled JDC systems can
// occasionally land a bounded step away (clamped and reported per
// Section 6), so the property asserts "almost always exact, never far".
//
// Random trials vary table sizes, join counts, join types and selections.
func TestWitnessDerivedConstraintsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	exact, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		sRows := 20 + rng.Intn(80)
		tRows := 200 + rng.Intn(800)
		schema := &relalg.Schema{Tables: []*relalg.Table{
			{Name: "s", Rows: int64(sRows), Columns: []relalg.Column{
				{Name: "s_pk", Kind: relalg.PrimaryKey},
				{Name: "s1", Kind: relalg.NonKey, DomainSize: int64(2 + rng.Intn(8))},
			}},
			{Name: "t", Rows: int64(tRows), Columns: []relalg.Column{
				{Name: "t_pk", Kind: relalg.PrimaryKey},
				{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
				{Name: "t1", Kind: relalg.NonKey, DomainSize: int64(2 + rng.Intn(15))},
			}},
		}}
		db := storage.NewDB(schema)
		sData := db.Table("s")
		sDom := schema.MustTable("s").NonKeys()[0].DomainSize
		s1 := make([]int64, sRows)
		for i := range s1 {
			s1[i] = int64(i)%sDom + 1
		}
		sData.SetCol("s1", s1)
		tData := db.Table("t")
		tDom := schema.MustTable("t").NonKeys()[0].DomainSize
		t1 := make([]int64, tRows)
		for i := range t1 {
			t1[i] = rng.Int63n(tDom) + 1
		}
		tData.SetCol("t1", t1)

		// Witness FK population.
		witness := make([]int64, tRows)
		for i := range witness {
			witness[i] = rng.Int63n(int64(sRows)) + 1
		}
		tData.SetCol("t_fk", witness)

		eng, err := engine.New(db)
		if err != nil {
			t.Fatal(err)
		}
		types := []relalg.JoinType{relalg.EquiJoin, relalg.LeftOuterJoin, relalg.LeftSemiJoin, relalg.LeftAntiJoin, relalg.RightSemiJoin}
		nJoins := 1 + rng.Intn(5)
		var joins []*genplan.JoinCons
		for k := 0; k < nJoins; k++ {
			jt := types[rng.Intn(len(types))]
			l := sel(leaf("s"), unary("s1", relalg.OpLe, pv("pl", rng.Int63n(sDom)+1)))
			r := sel(leaf("t"), unary("t1", relalg.OpGt, pv("pr", rng.Int63n(tDom))))
			root := &relalg.View{
				Kind:   relalg.JoinView,
				Join:   &relalg.JoinSpec{Type: jt, PKTable: "s", FKTable: "t", FKCol: "t_fk"},
				Inputs: []*relalg.View{l, r},
				Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
			}
			res, err := eng.Execute(&relalg.AQT{Name: "w", Root: root}, false)
			if err != nil {
				t.Fatal(err)
			}
			lc, rc := res.Stats[l].Card, res.Stats[r].Card
			jcc, jdc := relalg.SolveJoinConstraints(jt, res.Stats[root].Card, lc, rc, res.Stats[root].JCC, res.Stats[root].JDC)
			if jcc == relalg.CardUnknown && jdc == relalg.CardUnknown {
				continue
			}
			joins = append(joins, &genplan.JoinCons{
				ID: k, Query: fmt.Sprintf("w%d", k),
				Spec:     *root.Join,
				LeftView: l, RightView: r,
				JCC: jcc, JDC: jdc,
			})
		}
		if len(joins) == 0 {
			continue
		}
		checkTwoPhase(t, unitModel(t, db, joins), Config{Seed: int64(trial)})
		// Clear the FK column and regenerate.
		tData.SetCol("t_fk", nil)
		prob := &genplan.Problem{Schema: schema, Units: []*genplan.Unit{{Table: "t", FKCol: "t_fk", Joins: joins}}}
		st, err := Populate(context.Background(), Config{Seed: int64(trial)}, prob, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total++
		if st.Resized == 0 {
			exact++
			for _, jc := range joins {
				checkJoin(t, db, jc)
			}
			continue
		}
		// Residual trials: every constraint must still be close.
		eng2, _ := engine.New(db)
		for _, jc := range joins {
			root := &relalg.View{
				Kind: relalg.JoinView, Join: &jc.Spec,
				Inputs: []*relalg.View{jc.LeftView, jc.RightView},
				Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
			}
			res, err := eng2.Execute(&relalg.AQT{Name: "chk", Root: root}, false)
			if err != nil {
				t.Fatal(err)
			}
			check := func(want, got int64, what string) {
				if want == relalg.CardUnknown {
					return
				}
				diff := want - got
				if diff < 0 {
					diff = -diff
				}
				if float64(diff) > 0.2*float64(want)+2 {
					t.Errorf("trial %d: %s %s deviates %d vs %d (beyond the bounded-residual contract)",
						trial, jc, what, got, want)
				}
			}
			check(jc.JCC, res.Stats[root].JCC, "jcc")
			check(jc.JDC, res.Stats[root].JDC, "jdc")
		}
	}
	if exact*10 < total*9 {
		t.Fatalf("only %d of %d witness trials exact; want >= 90%%", exact, total)
	}
}
