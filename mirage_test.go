package mirage

import (
	"testing"

	"github.com/dbhammer/mirage/internal/testutil"
)

// TestEndToEndPaperWorkload is the headline integration test: the four-query
// workload of Fig. 1 is traced on the paper's original database, a synthetic
// database is generated, and every cardinality constraint must hold exactly
// (the paper's zero-error claim on its running example).
func TestEndToEndPaperWorkload(t *testing.T) {
	w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(testutil.PaperDB(), w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.DB.Check(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	reports, err := Validate(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	for _, r := range reports {
		if r.RelError != 0 {
			t.Errorf("%s: relative error %.4f (diff %d over %d across %d views): want exactly 0",
				r.Query, r.RelError, r.SumAbsDiff, r.SumTarget, r.Views)
		}
		if r.Views == 0 {
			t.Errorf("%s: no constrained views measured", r.Query)
		}
	}
}

// TestEndToEndDeterminism checks that the same seed reproduces the same
// database and the same instantiated parameters.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (*Result, *Workload) {
		w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := BuildProblem(testutil.PaperDB(), w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Generate(prob, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res, w
	}
	r1, w1 := run()
	r2, w2 := run()
	for _, tbl := range []string{"s", "t"} {
		t1, t2 := r1.DB.Table(tbl), r2.DB.Table(tbl)
		for _, col := range t1.Meta.Columns {
			c1, c2 := t1.Col(col.Name), t2.Col(col.Name)
			if len(c1) != len(c2) {
				t.Fatalf("%s.%s: lengths differ", tbl, col.Name)
			}
			for i := range c1 {
				if c1[i] != c2[i] {
					t.Fatalf("%s.%s row %d: %d vs %d", tbl, col.Name, i, c1[i], c2[i])
				}
			}
		}
	}
	if w1.FormatInstantiated() != w2.FormatInstantiated() {
		t.Fatal("instantiated workloads differ across identical runs")
	}
}

// TestEndToEndSmallBatches re-runs generation with tiny batches: batching is
// a memory knob and must not change correctness.
func TestEndToEndSmallBatches(t *testing.T) {
	w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(testutil.PaperDB(), w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 42, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Validate(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.RelError != 0 {
			t.Errorf("%s: relative error %.4f with batch size 2", r.Query, r.RelError)
		}
	}
	if res.Key.CPRounds < 4 { // 8 rows / batch 2 = 4 rounds
		t.Errorf("rounds = %d, want >= 4 with batch size 2", res.Key.CPRounds)
	}
}

// TestWorkloadClone verifies that cloned workloads instantiate params
// independently.
func TestWorkloadClone(t *testing.T) {
	w, err := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	if len(c.Templates) != len(w.Templates) {
		t.Fatal("clone lost templates")
	}
	wp := w.Templates[0].Params()
	cpms := c.Templates[0].Params()
	if len(wp) == 0 || len(cpms) != len(wp) {
		t.Fatal("clone params mismatch")
	}
	cpms[0].Set(999)
	if wp[0].Instantiated {
		t.Fatal("clone shares params with the original")
	}
	if w.Template("q3") == nil || w.Template("zzz") != nil {
		t.Fatal("Template lookup broken")
	}
}

func TestFormatInstantiatedMentionsParams(t *testing.T) {
	w, _ := NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	prob, err := BuildProblem(testutil.PaperDB(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(prob, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := w.FormatInstantiated()
	if out == "" || !contains(out, "q1_p1=") {
		t.Fatalf("instantiated rendering missing params:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
