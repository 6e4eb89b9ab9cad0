package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
)

// tiny keeps the experiment smoke tests fast.
func tiny() Config { return Config{SF: 0.05, Seed: 7} }

func TestRunTable1(t *testing.T) {
	r, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var mir, ts, hy Table1Row
	for _, row := range r.Rows {
		switch row.Tool {
		case "mirage":
			mir = row
		case "touchstone":
			ts = row
		case "hydra":
			hy = row
		}
	}
	// The paper's dominance order: Mirage supports everything; Touchstone
	// more than Hydra on TPC-H; Hydra everything on its preferred TPC-DS.
	if mir.TPCHSupported != 22 || mir.SSBSupported != 13 || mir.DSSupported != 100 {
		t.Errorf("mirage support = %+v, want full", mir)
	}
	if ts.TPCHSupported <= hy.TPCHSupported {
		t.Errorf("touchstone tpch %d should exceed hydra %d", ts.TPCHSupported, hy.TPCHSupported)
	}
	if hy.DSSupported != 100 {
		t.Errorf("hydra tpcds = %d, want 100 (its preferred workload)", hy.DSSupported)
	}
	out := r.Format()
	if !strings.Contains(out, "mirage") || !strings.Contains(out, "Table 1") {
		t.Error("Format output incomplete")
	}
}

func TestRunFig11SSBShape(t *testing.T) {
	r, err := RunFig11("ssb", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 13 {
		t.Fatalf("queries = %d", len(r.Queries))
	}
	var mirMean, tsMean float64
	for _, e := range r.Errors["mirage"] {
		mirMean += e
	}
	for _, e := range r.Errors["touchstone"] {
		tsMean += e
	}
	mirMean /= 13
	tsMean /= 13
	// The paper's headline shape: Mirage at (near) zero, Touchstone small
	// but positive, and strictly worse than Mirage.
	if mirMean > 0.01 {
		t.Errorf("mirage mean SSB error %.4f, want ~0", mirMean)
	}
	if tsMean <= mirMean {
		t.Errorf("touchstone mean %.4f must exceed mirage %.4f", tsMean, mirMean)
	}
	if !strings.Contains(r.Format(), "MEAN") {
		t.Error("Format output incomplete")
	}
}

// TestRunFig11ObservesPipeline pins that the experiments run the product
// pipeline: a registry on the figure run's context records the same stage
// spans a miragegen run does.
func TestRunFig11ObservesPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := tiny()
	cfg.Ctx = obs.WithRegistry(context.Background(), reg)
	_, err := RunFig11("ssb", cfg)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]*obs.SpanNode{}
	for _, s := range reg.Snapshot().Spans {
		roots[s.Name] = s
	}
	for _, name := range []string{"build", "generate", "validate"} {
		if roots[name] == nil {
			t.Fatalf("no %s root span", name)
		}
	}
	for _, stage := range []string{"nonkey", "keygen"} {
		if roots["generate"].Find(stage) == nil {
			t.Errorf("no generate/%s span", stage)
		}
	}
}

func TestRunFig15QuerySweep(t *testing.T) {
	r, err := RunFig15("ssb", tiny(), []int{4, 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 || r.Points[0].Queries != 4 || r.Points[1].Queries != 13 {
		t.Fatalf("points = %+v", r.Points)
	}
	if out := r.FormatFig16(); !strings.Contains(out, "decouple") {
		t.Error("Fig16 format incomplete")
	}
}

func TestRunFig12Latency(t *testing.T) {
	r, err := RunFig12("ssb", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 13 || len(r.Original) != 13 || len(r.Synthetic) != 13 {
		t.Fatalf("series lengths wrong: %d/%d/%d", len(r.Queries), len(r.Original), len(r.Synthetic))
	}
	if !strings.Contains(r.Format(), "deviation") {
		t.Error("Format output incomplete")
	}
}
