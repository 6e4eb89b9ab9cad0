package baseline

import (
	"errors"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/sqlparse"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
	"github.com/dbhammer/mirage/internal/trace"
	"github.com/dbhammer/mirage/internal/validate"
	"github.com/dbhammer/mirage/internal/workload"
)

// loadScenario traces one built-in workload at a small scale.
func loadScenario(t *testing.T, name string, sf float64) (*relalg.Schema, []*relalg.AQT) {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(sf)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sqlparse.NewParser(schema, spec.Codecs)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := p.ParseWorkload(spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.New(original)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if err := a.AnnotateAQT(q); err != nil {
			t.Fatal(err)
		}
	}
	return schema, qs
}

func supportedCount(qs []*relalg.AQT, ok func(*relalg.AQT) Support) int {
	n := 0
	for _, q := range qs {
		if ok(q).OK {
			n++
		}
	}
	return n
}

// TestTouchstoneEnvelopeTPCH checks the published capability envelope: no
// outer/semi/anti joins, no FK projections, no OR predicates — the paper's
// Table 1 row (Touchstone supports 16 of the 22; this repo's plan shapes
// yield 14, see EXPERIMENTS.md).
func TestTouchstoneEnvelopeTPCH(t *testing.T) {
	schema, qs := loadScenario(t, "tpch", 0.1)
	ts := &Touchstone{Schema: schema}
	n := supportedCount(qs, ts.Supports)
	if n < 13 || n > 17 {
		t.Fatalf("touchstone supports %d of 22 TPC-H queries, want ~14-16", n)
	}
	// The six complex queries must be rejected.
	for _, q := range qs {
		switch q.Name {
		case "q13", "q16", "q17", "q18", "q19", "q20", "q21", "q22":
			if ts.Supports(q).OK {
				t.Errorf("%s should exceed Touchstone's envelope", q.Name)
			}
		}
	}
}

func TestHydraEnvelope(t *testing.T) {
	schema, qs := loadScenario(t, "tpch", 0.1)
	hy := &Hydra{Schema: schema}
	n := supportedCount(qs, hy.Supports)
	if n < 5 || n > 9 {
		t.Fatalf("hydra supports %d of 22 TPC-H queries, want ~6-8", n)
	}
	// The paper's supported set must be inside ours.
	for _, q := range qs {
		switch q.Name {
		case "q1", "q3", "q6", "q10", "q14", "q15":
			if !hy.Supports(q).OK {
				t.Errorf("%s should be within Hydra's envelope: %s", q.Name, hy.Supports(q).Reason)
			}
		case "q2", "q4", "q9", "q12", "q13", "q19":
			if hy.Supports(q).OK {
				t.Errorf("%s should exceed Hydra's envelope", q.Name)
			}
		}
	}
	// SSB: everything except the Q4 string-range flight is supported.
	schemaS, qsS := loadScenario(t, "ssb", 0.1)
	hyS := &Hydra{Schema: schemaS}
	for _, q := range qsS {
		ok := hyS.Supports(q).OK
		switch q.Name {
		case "ssb_q4_1", "ssb_q4_2", "ssb_q4_3", "ssb_q2_2":
			if ok {
				t.Errorf("%s uses a string range; Hydra must reject it", q.Name)
			}
		default:
			if !ok {
				t.Errorf("%s should be within Hydra's envelope: %s", q.Name, hyS.Supports(q).Reason)
			}
		}
	}
}

// TestTouchstoneGeneratesBoundedErrors runs the full Touchstone flow on SSB:
// supported queries validate with small-but-nonzero errors (its published
// "No Guarantee" behaviour), never exactly exceeding the unsupported marker.
func TestTouchstoneGeneratesBoundedErrors(t *testing.T) {
	schema, qs := loadScenario(t, "ssb", 0.5)
	ts := &Touchstone{Schema: schema, Seed: 11, SampleSize: 1000}
	db, supports, err := ts.Generate(qs)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := validate.Workload(db, qs)
	if err != nil {
		t.Fatal(err)
	}
	var supported int
	for i, r := range reports {
		if !supports[i].OK {
			continue
		}
		supported++
		if r.RelError >= 1 {
			t.Errorf("%s: touchstone error %.4f, want < 1 for a supported query", r.Query, r.RelError)
		}
	}
	if supported != 13 {
		t.Fatalf("touchstone supports %d of 13 SSB queries, want 13", supported)
	}
	if mean := validate.Mean(reports); mean > 0.35 {
		t.Errorf("touchstone mean SSB error %.4f; expected moderate noise at this scale", mean)
	}
}

func TestHydraGeneratesBoundedErrors(t *testing.T) {
	schema, qs := loadScenario(t, "ssb", 0.5)
	hy := &Hydra{Schema: schema, Seed: 11}
	db, supports, err := hy.Generate(qs)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := validate.Workload(db, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if supports[i].OK && r.RelError >= 1 {
			t.Errorf("%s: hydra error %.4f, want < 1 for a supported query", r.Query, r.RelError)
		}
		// Unsupported queries are replaced by 100%-error markers at the
		// harness level (experiments.finishToolRun); here they simply
		// execute without a guarantee.
		_ = supports[i]
	}
}

func TestAnalyzeFeatures(t *testing.T) {
	schema, qs := loadScenario(t, "tpch", 0.1)
	byName := make(map[string]features)
	for _, q := range qs {
		byName[q.Name] = analyze(q, schema)
	}
	if !byName["q13"].joinTypesHas(relalg.LeftOuterJoin) {
		t.Error("q13 must report a left outer join")
	}
	if !byName["q16"].fkProjection {
		t.Error("q16 must report an FK projection")
	}
	if !byName["q19"].hasOr {
		t.Error("q19 must report OR logic")
	}
	if !byName["q4"].hasArith {
		t.Error("q4 must report an arithmetic predicate")
	}
	if !byName["q9"].hasLike {
		t.Error("q9 must report a LIKE predicate")
	}
}

func (f features) joinTypesHas(jt relalg.JoinType) bool { return f.joinTypes[jt] > 0 }

// TestTouchstoneArithOverUnpopulatedColumnFails: Touchstone samples an
// arithmetic selection before it populates foreign keys, so one over an FK
// column has no values to sample. Generate reports that as an error naming
// the table, not a panic.
func TestTouchstoneArithOverUnpopulatedColumnFails(t *testing.T) {
	schema := testutil.PaperSchema()
	expr := relalg.BinExpr{Op: relalg.Sub, L: relalg.ColRef{Col: "t1"}, R: relalg.ColRef{Col: "t_fk"}}
	root := &relalg.View{Kind: relalg.SelectView, Card: 3, Inputs: []*relalg.View{
		{Kind: relalg.LeafView, Table: "t", Card: 8},
	}, Pred: &relalg.ArithPred{Expr: expr, Op: relalg.OpGt, P: &relalg.Param{ID: "p", Orig: 0}}}
	ts := &Touchstone{Schema: schema, Seed: 1, SampleSize: 4}
	_, _, err := ts.Generate([]*relalg.AQT{{Name: "qa", Root: root}})
	if !errors.Is(err, storage.ErrNotMaterialized) || !strings.Contains(err.Error(), " t: ") {
		t.Fatalf("Generate = %v, want ErrNotMaterialized naming table t", err)
	}
}
