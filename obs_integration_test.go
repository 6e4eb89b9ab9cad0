package mirage

// Golden telemetry test: one small SSB run with an enabled obs registry must
// produce a RunReport carrying the full span hierarchy (build → annotate →
// template, generate → nonkey/keygen → table/wave/unit, validate → query),
// monotone timestamps, and the pipeline's key counters and histograms. This
// is the end-to-end check that every instrumentation point actually fires.

import (
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/workload"
)

func runTracedSSB(t *testing.T) *obs.RunReport {
	t.Helper()
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(0.1)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	defer obs.Enable(reg)()
	prob, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(res); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// findRoot returns the first root span with the given name.
func findRoot(rep *obs.RunReport, name string) *obs.SpanNode {
	for _, s := range rep.Spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// checkSpan asserts monotone timestamps recursively: every span starts no
// earlier than its parent, ends no earlier than it starts, and lies within
// the run's wall clock.
func checkSpan(t *testing.T, s *obs.SpanNode, parentStart, wall int64) {
	t.Helper()
	if s.StartNS < parentStart {
		t.Errorf("span %s starts at %d before its parent at %d", s.Name, s.StartNS, parentStart)
	}
	if s.EndNS < s.StartNS {
		t.Errorf("span %s ends at %d before it starts at %d", s.Name, s.EndNS, s.StartNS)
	}
	if s.EndNS > wall {
		t.Errorf("span %s ends at %d after the wall clock %d", s.Name, s.EndNS, wall)
	}
	for _, c := range s.Children {
		checkSpan(t, c, s.StartNS, wall)
	}
}

func TestRunReportGoldenSSB(t *testing.T) {
	rep := runTracedSSB(t)

	// Stage spans: the three roots and their expected substages.
	build := findRoot(rep, "build")
	if build == nil {
		t.Fatal("no build span")
	}
	ann := build.Find("annotate")
	if ann == nil {
		t.Fatal("no build/annotate span")
	}
	var templates int
	for _, c := range ann.Children {
		if strings.HasPrefix(c.Name, "template:") {
			templates++
		}
	}
	if templates == 0 {
		t.Error("annotate has no template:* children")
	}
	if build.Find("genplan") == nil {
		t.Error("no build/genplan span")
	}

	gen := findRoot(rep, "generate")
	if gen == nil {
		t.Fatal("no generate span")
	}
	nk := gen.Find("nonkey")
	if nk == nil {
		t.Fatal("no generate/nonkey span")
	}
	var tables int
	for _, c := range nk.Children {
		if strings.HasPrefix(c.Name, "table:") {
			tables++
		}
	}
	if tables != 5 { // SSB: lineorder, customer, supplier, part, date
		t.Errorf("nonkey traced %d tables, want 5", tables)
	}
	kg := gen.Find("keygen")
	if kg == nil {
		t.Fatal("no generate/keygen span")
	}
	var units int
	for _, wv := range kg.Children {
		if !strings.HasPrefix(wv.Name, "wave:") {
			t.Errorf("keygen child %s is not a wave", wv.Name)
			continue
		}
		for _, u := range wv.Children {
			if strings.HasPrefix(u.Name, "unit:") {
				units++
			}
		}
	}
	if units == 0 {
		t.Error("keygen traced no unit:* spans")
	}

	val := findRoot(rep, "validate")
	if val == nil {
		t.Fatal("no validate span")
	}
	var queries int
	for _, c := range val.Children {
		if strings.HasPrefix(c.Name, "query:") {
			queries++
		}
	}
	if queries == 0 {
		t.Error("validate traced no query:* spans")
	}

	// Timestamps: monotone everywhere.
	for _, s := range rep.Spans {
		checkSpan(t, s, 0, rep.WallNS)
	}

	// Counters every SSB run must move.
	for _, name := range []string{
		"trace_templates_total",
		"generate_rows_total",
		"nonkey_rows_total",
		"keygen_waves_total",
		"keygen_units_total",
		"engine_executes_total",
		"validate_queries_total",
	} {
		if rep.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, rep.Counters[name])
		}
	}
	// Labeled worker-pool counters: at least the nonkey and keygen stages.
	for _, key := range []string{
		`parallel_items_total{stage="nonkey/tables"}`,
		`parallel_items_total{stage="keygen/wave"}`,
	} {
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %s = %d, want > 0", key, rep.Counters[key])
		}
	}

	// Histograms with samples.
	for _, name := range []string{
		"validate_query_ns",
		"nonkey_layout_ns",
		"nonkey_fill_ns",
		`engine_op_ns{op="select"}`,
		`engine_op_rows{op="select"}`,
	} {
		h, ok := rep.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty", name)
		}
	}
}
