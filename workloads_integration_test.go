package mirage

import (
	"context"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

// runScenario executes the full pipeline for one benchmark at a small scale
// factor and returns the per-query fidelity reports.
func runScenario(t *testing.T, name string, sf float64) []Report {
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
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 3})
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
	return reports
}

func TestSSBEndToEnd(t *testing.T) {
	reports := runScenario(t, "ssb", 0.2)
	for _, r := range reports {
		if r.Unsupported {
			t.Errorf("%s: unsupported: %s", r.Query, r.Err)
			continue
		}
		if r.RelError > 0 {
			t.Errorf("%s: relative error %.6f (diff %d / %d), want 0", r.Query, r.RelError, r.SumAbsDiff, r.SumTarget)
		}
	}
}

func TestTPCHEndToEnd(t *testing.T) {
	reports := runScenario(t, "tpch", 0.1)
	var mean float64
	for _, r := range reports {
		if r.Unsupported {
			t.Errorf("%s: unsupported: %s", r.Query, r.Err)
			continue
		}
		mean += r.RelError
		// The paper's bound: near-zero for 19 queries, < 0.1% residuals
		// from sampling/ties, plus Q19's correlated residual (documented
		// approximation). Allow per-query slack accordingly.
		limit := 0.02
		if r.Query == "q19" {
			limit = 0.40
		}
		if r.RelError > limit {
			t.Errorf("%s: relative error %.6f (diff %d / %d over %d views), want <= %.2f",
				r.Query, r.RelError, r.SumAbsDiff, r.SumTarget, r.Views, limit)
		}
	}
	mean /= float64(len(reports))
	if mean > 0.03 {
		t.Errorf("mean TPC-H relative error %.4f, want <= 0.03", mean)
	}
}

// TestTPCHSeed5Generates: the TPC-H SF 10 problem drawn at seed 5 (miragegen
// -workload tpch -sf 10 -seed 5) used to stop in keygen with "fresh-key
// demand exceeds supply": an empty cell linked two classes of an S partition
// of lineitem.l_orderkey into one key component that the DF stage had
// budgeted as two. It generates, and degrades only by the resizes every
// TPC-H seed takes.
func TestTPCHSeed5Generates(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H SF 10 is slow in -short mode")
	}
	spec, err := workload.ByName("tpch")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(10)
	original, err := workload.GenerateOriginal(schema, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Degradations {
		if d.Kind != "resize" || (d.Unit != "lineitem.l_partkey" && d.Unit != "partsupp.ps_suppkey") {
			t.Errorf("unexpected degradation %+v", d)
		}
	}
}

func TestTPCDSEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tpcds end-to-end is slow in -short mode")
	}
	reports := runScenario(t, "tpcds", 0.05)
	for _, r := range reports {
		if r.Unsupported {
			t.Errorf("%s: unsupported: %s", r.Query, r.Err)
			continue
		}
		// Programmatic TPC-DS templates overlap heavily on the small date
		// dimension, and the sampled move search leaves bounded residuals
		// on the largest fact units: 98 of 100 queries land under 6%, two
		// under 10% (see EXPERIMENTS.md).
		if r.RelError > 0.12 {
			t.Errorf("%s: relative error %.6f, want <= 0.12", r.Query, r.RelError)
		}
	}
}

// TestRowSetsNeverMaterialized pins the traffic claim keygen's CS stage is
// built on: every row-set request of the three built-in workloads is a
// selection chain or a tree of equi-joins over chains, so the engine answers
// all of them by table passes and semi-join reduction and never evaluates a
// view (engine_rowset_materialized_total stays 0), in memory and streamed. A
// rewrite or DSL change that starts putting outer joins or selections over
// joins inside join-constraint views turns this red instead of silently
// tripling CS time. The streamed runs also log how many columns fell back to
// whole-column regeneration.
func TestRowSetsNeverMaterialized(t *testing.T) {
	for _, wl := range []struct {
		name string
		sf   float64
	}{{"ssb", 0.2}, {"tpch", 0.5}, {"tpcds", 0.05}} {
		for _, streamed := range []bool{false, true} {
			prob := streamProblem(t, wl.name, wl.sf)
			reg := obs.NewRegistry()
			ctx := obs.WithRegistry(context.Background(), reg)
			var err error
			if streamed {
				_, err = GenerateStreamCtx(ctx, prob, Options{Seed: 3}, StreamConfig{Sink: &storage.CountSink{}})
			} else {
				_, err = GenerateCtx(ctx, prob, Options{Seed: 3})
			}
			if err != nil {
				t.Fatalf("%s streamed=%v: %v", wl.name, streamed, err)
			}
			c := reg.Snapshot().Counters
			if c[`parallel_items_total{stage="engine/window"}`] == 0 {
				t.Errorf("%s streamed=%v: no window ran — the CS stage did not reach the engine", wl.name, streamed)
			}
			if n := c["engine_rowset_materialized_total"]; n != 0 {
				t.Errorf("%s streamed=%v: %d row-set requests were answered by evaluating their view", wl.name, streamed, n)
			}
			if streamed {
				t.Logf("%s streamed: engine_window_fallbacks_total = %d, windows run = %d",
					wl.name, c["engine_window_fallbacks_total"], c[`parallel_items_total{stage="engine/window"}`])
			}
		}
	}
}

// TestAnnotationsCounted pins the traffic claim annotation is built on: every
// tree BuildProblem annotates on SSB, TPC-H and TPC-DS — templates and
// rewritten forests, outer, semi and anti joins and MultiViews included — is
// counted from per-row multiplicities, and none is evaluated
// (engine_count_materialized_total stays 0), except one on TPC-H: q19's
// template, whose selection over a join output the counting path leaves to
// Execute. The benchmark's TPC-H workload drops q19 and evaluates none.
func TestAnnotationsCounted(t *testing.T) {
	for _, wl := range []struct {
		name      string
		sf        float64
		without   string // templates left out, by name prefix
		evaluated int64
	}{{"ssb", 0.2, "", 0}, {"tpch", 0.5, "", 1}, {"tpch", 0.5, "q19", 0}, {"tpcds", 0.05, "", 0}} {
		reg := obs.NewRegistry()
		streamProblemWithout(obs.WithRegistry(context.Background(), reg), t, wl.name, wl.sf, wl.without)
		c := reg.Snapshot().Counters
		if n := c["engine_count_materialized_total"]; n != wl.evaluated {
			t.Errorf("%s without %q: %d annotated trees were evaluated, want %d", wl.name, wl.without, n, wl.evaluated)
		}
		if c["trace_templates_total"] == 0 {
			t.Errorf("%s: nothing was annotated", wl.name)
		}
	}
}
