package trace

import (
	"context"
	"fmt"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/sqlparse"
	"github.com/dbhammer/mirage/internal/testutil"
	"github.com/dbhammer/mirage/internal/workload"
)

func parseWorkload(t *testing.T) []*relalg.AQT {
	t.Helper()
	p, err := sqlparse.NewParser(testutil.PaperSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := p.ParseWorkload(testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func findView(q *relalg.AQT, name string) *relalg.View {
	var out *relalg.View
	q.Root.Walk(func(v *relalg.View) {
		if v.Name == name {
			out = v
		}
	})
	return out
}

func TestAnnotatePaperWorkload(t *testing.T) {
	qs := parseWorkload(t)
	a, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if err := a.AnnotateAQT(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	q1 := qs[0]
	if got := findView(q1, "v3").Card; got != 2 {
		t.Errorf("|v3| = %d, want 2", got)
	}
	if got := findView(q1, "v4").Card; got != 6 {
		t.Errorf("|v4| = %d, want 6", got)
	}
	v5 := findView(q1, "v5")
	if v5.Card != 5 || v5.JCC != 5 {
		t.Errorf("v5 card/jcc = %d/%d, want 5/5", v5.Card, v5.JCC)
	}
	// The FK projection converts its PCC into the child join's JDC.
	if v5.JDC != 2 {
		t.Errorf("v5 jdc = %d, want 2 (from PCC of v6)", v5.JDC)
	}
	v8 := findView(qs[1], "v8")
	// Left outer join: both observed constraints enforced.
	if v8.JCC != 5 || v8.JDC != 3 || v8.Card != 6 {
		t.Errorf("v8 = card %d jcc %d jdc %d, want 6/5/3", v8.Card, v8.JCC, v8.JDC)
	}
	if got := findView(qs[2], "v9").Card; got != 1 {
		t.Errorf("|v9| = %d, want 1", got)
	}
	if got := findView(qs[3], "v10").Card; got != 5 {
		t.Errorf("|v10| = %d, want 5", got)
	}
}

func TestAnnotateForestFillsRewrittenViews(t *testing.T) {
	qs := parseWorkload(t)
	a, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	rw := rewrite.New(testutil.PaperSchema())
	for _, q := range qs {
		f, err := rw.Rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AnnotateForest(f); err != nil {
			t.Fatal(err)
		}
		for _, tree := range f.Trees {
			tree.Walk(func(v *relalg.View) {
				if v.Card == relalg.CardUnknown {
					t.Errorf("%s: view %s left unannotated", q.Name, v)
				}
			})
		}
	}
}

func TestAnnotateSemiJoinDerivesJDC(t *testing.T) {
	p, _ := sqlparse.NewParser(testutil.PaperSchema(), nil)
	q, err := p.ParsePlan("semi", `
		ss = table s
		tt = table t
		v = select tt where t1 > 3
		j = join ss v on t_fk type semi
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := New(testutil.PaperDB())
	if err := a.AnnotateAQT(q); err != nil {
		t.Fatal(err)
	}
	j := findView(q, "j")
	// t1>3 selects rows 1,2,3 (t1=4,4,4) with fks {1,2,2}: jdc = 2 distinct.
	if j.Card != 2 || j.JDC != 2 || j.JCC != relalg.CardUnknown {
		t.Fatalf("semi join annotation = card %d jcc %d jdc %d, want 2/unknown/2", j.Card, j.JCC, j.JDC)
	}
}

func TestAnnotateAntiJoinDerivesJDC(t *testing.T) {
	p, _ := sqlparse.NewParser(testutil.PaperSchema(), nil)
	q, err := p.ParsePlan("anti", `
		ss = table s
		tt = table t
		v = select tt where t1 > 3
		j = join ss v on t_fk type anti
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := New(testutil.PaperDB())
	if err := a.AnnotateAQT(q); err != nil {
		t.Fatal(err)
	}
	j := findView(q, "j")
	// Left anti output = |S| - jdc = 4 - 2 = 2; constraint jdc = |S| - card.
	if j.Card != 2 || j.JDC != 2 {
		t.Fatalf("anti join annotation = card %d jdc %d, want 2/2", j.Card, j.JDC)
	}
}

// TestCountMatchesExecuteOnWorkloads holds every tree annotation counts on
// SSB, TPC-H (q19 included) and TPC-DS — templates and rewritten forests —
// to Execute, view by view, and checks that only q19's template, a
// selection over a join, leaves the counting path.
func TestCountMatchesExecuteOnWorkloads(t *testing.T) {
	for _, wl := range []struct {
		name string
		sf   float64
	}{{"ssb", 0.2}, {"tpch", 0.3}, {"tpcds", 0.05}} {
		spec, err := workload.ByName(wl.name)
		if err != nil {
			t.Fatal(err)
		}
		schema, db, templates, err := workload.Materialize(spec, wl.sf, 11)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		eng, err := engine.New(db)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRegistry(reg)
		rw := rewrite.New(schema)
		check := func(q *relalg.AQT) {
			t.Helper()
			got, err := eng.Count(context.Background(), q, true, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.name, q.Name, err)
			}
			want, err := eng.Execute(q, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.name, q.Name, err)
			}
			q.Root.Walk(func(v *relalg.View) {
				if got.Stats[v] != want.Stats[v] {
					t.Errorf("%s/%s: %s counted %+v, Execute %+v", wl.name, q.Name, v, got.Stats[v], want.Stats[v])
				}
			})
		}
		for _, q := range templates {
			if err := a.AnnotateAQT(q); err != nil {
				t.Fatal(err)
			}
			check(q)
			f, err := rw.Rewrite(q)
			if err != nil {
				t.Fatal(err)
			}
			for i, tree := range f.Trees {
				check(&relalg.AQT{Name: fmt.Sprintf("%s#%d", q.Name, i), Root: tree})
			}
		}
		want := int64(0)
		if wl.name == "tpch" {
			want = 1
		}
		if n := reg.Snapshot().Counters["engine_count_materialized_total"]; n != want {
			t.Errorf("%s: %d trees evaluated, want %d", wl.name, n, want)
		}
	}
}
