package mirage

// Golden telemetry test: one small SSB run with a registry on its context
// must produce a RunReport carrying the full span hierarchy (build →
// annotate → template, generate → nonkey/keygen → table/wave/unit, validate
// → query), monotone timestamps, and the pipeline's key counters and
// histograms. This is the end-to-end check that every instrumentation point
// actually fires, and, through telemetryReaders, that each one has a reader.

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/workload"
)

// telemetryReaders is the catalogue of every metric family the pipeline
// records, each with what reads it (DESIGN.md §9). A family that nothing
// reads is deleted, not catalogued.
var telemetryReaders = map[string]string{
	"trace_templates_total":            "TestAnnotationsCounted, TestRunReportGoldenSSB, TestTwoRunsTwoReports",
	"generate_rows_total":              "TestRunReportGoldenSSB, TestTwoRunsTwoReports",
	"nonkey_rows_total":                "TestRunReportGoldenSSB, TestTwoRunsTwoReports",
	"nonkey_layout_ns":                 "TestRunReportGoldenSSB",
	"nonkey_fill_ns":                   "TestRunReportGoldenSSB",
	"keygen_waves_total":               "TestRunReportGoldenSSB",
	"keygen_units_total":               "TestRunReportGoldenSSB",
	"engine_executes_total":            "TestRunReportGoldenSSB",
	"engine_op_ns":                     "TestRunReportGoldenSSB",
	"engine_op_rows":                   "TestRunReportGoldenSSB",
	"engine_rowset_materialized_total": "TestRowSetsNeverMaterialized",
	"engine_count_materialized_total":  "TestAnnotationsCounted, TestCountFallsBack",
	"engine_windows_total":             "TestRowSetsNeverMaterialized, TestWideWindowFault",
	"engine_window_fallbacks_total":    "TestWindowedExecuteMatchesClassic, TestPrimaryKeyDerivedOnEveryEngine",
	"engine_spill_files_total":         "TestReductionFaultNoTornSpill",
	"engine_spill_bytes_total":         "ROADMAP observability (c): spill bytes",
	"parallel_items_total":             "TestRunReportGoldenSSB, TestFailFastStopsClaiming",
	"parallel_item_ns":                 "ROADMAP use every core: per-worker busy and idle time",
	"parallel_worker_busy_ns":          "ROADMAP use every core: per-worker busy and idle time",
	"parallel_queue_wait_ns":           "ROADMAP use every core: per-worker busy and idle time",
	"validate_queries_total":           "TestRunReportGoldenSSB",
	"validate_query_ns":                "TestRunReportGoldenSSB",
	"export_rows_streamed_total":       "obs.Tracker: /progress exported rows",
	"export_bytes_streamed_total":      "obs.Tracker: /progress exported bytes",
	"sink_retries_total":               "TestRetrySinkFlaky, TestStreamedFlakySinkRetries",
	"sink_giveups_total":               "TestRetrySinkGivesUp",
	"heap_alloc_bytes":                 "obs.Tracker: /progress heap",
	"peak_heap_bytes":                  "obs.Tracker: /progress peak heap; miragegen's run summary",
}

// checkFamilies asserts that every metric family in rep is catalogued in
// telemetryReaders.
func checkFamilies(t *testing.T, rep *obs.RunReport) {
	t.Helper()
	var keys []string
	for k := range rep.Counters {
		keys = append(keys, k)
	}
	for k := range rep.Gauges {
		keys = append(keys, k)
	}
	for k := range rep.Histograms {
		keys = append(keys, k)
	}
	for _, k := range keys {
		base, _, _ := strings.Cut(k, "{")
		if _, ok := telemetryReaders[base]; !ok {
			t.Errorf("metric family %s is in the run report but has no reader in telemetryReaders", base)
		}
	}
}

// TestTelemetryFamiliesCatalogued extends checkFamilies to the families a
// small SSB run never reaches (spills, sink retries): every metric name
// literal in the shipped Go sources must be catalogued, and every catalogued
// family must still be recorded somewhere.
func TestTelemetryFamiliesCatalogued(t *testing.T) {
	site := regexp.MustCompile(`\.(?:Counter|CounterL|Gauge|Histogram|HistogramL)\("([a-z_]+)"`)
	recorded := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range site.FindAllSubmatch(src, -1) {
			name := string(m[1])
			recorded[name] = true
			if _, ok := telemetryReaders[name]; !ok {
				t.Errorf("%s records metric family %s, which has no reader in telemetryReaders", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range telemetryReaders {
		if !recorded[name] {
			t.Errorf("catalogued family %s is recorded nowhere", name)
		}
	}
}

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
	ctx := obs.WithRegistry(context.Background(), reg)
	prob, err := BuildProblemCtx(ctx, original, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateCtx(ctx, prob, Options{Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateCtx(ctx, res); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestTwoRunsTwoReports runs two SSB builds and generations at once, each
// with its own registry on its context: each report counts its own run and
// nothing of the other's.
func TestTwoRunsTwoReports(t *testing.T) {
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	sfs := []float64{0.1, 0.2}
	regs := make([]*obs.Registry, len(sfs))
	results := make([]*Result, len(sfs))
	errs := make([]error, len(sfs))
	var wg sync.WaitGroup
	for i, sf := range sfs {
		schema := spec.NewSchema(sf)
		original, err := workload.GenerateOriginal(schema, 11)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = obs.NewRegistry()
		ctx := obs.WithRegistry(context.Background(), regs[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			prob, err := BuildProblemCtx(ctx, original, w)
			if err == nil {
				results[i], err = GenerateCtx(ctx, prob, Options{Seed: 11, Parallelism: 2})
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range sfs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		rep := regs[i].Snapshot()
		rows := int64(results[i].DB.TotalRows())
		for name, want := range map[string]int64{
			"generate_rows_total":   rows,
			"nonkey_rows_total":     rows,
			"trace_templates_total": int64(len(results[i].Problem.Workload.Templates)),
		} {
			if got := rep.Counters[name]; got != want {
				t.Errorf("run %d: %s = %d, want %d", i, name, got, want)
			}
		}
		var roots []string
		for _, s := range rep.Spans {
			roots = append(roots, s.Name)
		}
		if !slices.Equal(roots, []string{"build", "generate"}) {
			t.Errorf("run %d: span roots %v, want its own build and generate", i, roots)
		}
		checkFamilies(t, rep)
	}
	if results[0].DB.TotalRows() == results[1].DB.TotalRows() {
		t.Fatal("the two runs must differ in size for the counts to tell them apart")
	}
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
	checkFamilies(t, rep)

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
