package main

import (
	"encoding/json"
	"strings"
)

// workloadSpec is one named benchmark workload: a built-in scenario at a
// fixed scale, optionally cut down to a template subset, run through one of
// the two pipelines. SF is this repo's scale factor, 1/100 of the official
// benchmarks' (tpch SF 10 here ≈ official SF 0.1).
type workloadSpec struct {
	Name     string
	Why      string
	Scenario string
	SF       float64
	// Only keeps just the named templates of the scenario's DSL (nil = all);
	// Drop then removes the named ones.
	Only, Drop []string
	// Stream selects GenerateStream → DirSink; otherwise Generate → Validate
	// → ExportCSVDir.
	Stream bool
	// ZeroError pins every template's relative error to exactly 0.
	ZeroError bool
}

// nondeterministic names the TPC-H template the full-workload runs leave out.
// q19's two in-list parameters are instantiated in map-iteration order
// (nonkey.resolveParams ranges over a map of set groups that share a
// parameter), so they differ in one run out of five, and in one out of fifty
// that changes which part rows q19 selects and with it every value of
// lineitem.l_partkey — the byte-identity gate then fails by chance. The
// benchmark must run workloads on which no operation fails; put q19 back
// when generation is deterministic with it.
var nondeterministic = []string{"q19"}

// The scales are the largest at which three whole cycles (set-up, build,
// generate) plus the cross-pipeline check fit one driver run; see README.md
// for the measurements behind them.
var workloads = []workloadSpec{
	{
		Name: "tpch-stream", Scenario: "tpch", SF: 10, Drop: nondeterministic, Stream: true,
		Why: "TPC-H 21 templates SF 10 streamed to disk: windowed keygen CS and the column regeneration under it dominate, export most of the rest",
	},
	{
		Name: "tpch-inmem", Scenario: "tpch", SF: 10, Drop: nondeterministic,
		Why: "same problem and seed materialised, validated, exported: same layers used the other way, keygen is cheap, nonkey materialisation matters; tree must equal tpch-stream",
	},
	{
		Name: "tpcds-stream", Scenario: "tpcds", SF: 3, Stream: true,
		Why: "TPC-DS-style 100 templates SF 3 streamed: many FK units over 5 waves and many CP rounds on a tiny output, so solver and build changes show and export changes must not",
	},
	{
		Name: "tpch-scan-stream", Scenario: "tpch", SF: 30, Only: []string{"q1", "q6"}, Stream: true,
		Why: "TPC-H SF 30 with only single-table q1,q6: no join constraints, so regeneration, CSV encode and sink write are the run; keygen optimisations must show nothing",
	},
	{
		Name: "ssb-inmem", Scenario: "ssb", SF: 40, ZeroError: true,
		Why: "SSB 13 templates SF 40 in memory: one fact table carries all four FK units, one per wave (worst case for wave parallelism); the paper's exact zero-error anchor",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; 0 on a metric that is exact at a
// fixed seed means any increase is a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Listed end-to-end metrics go into BENCHMARK.json and the --trace 0
	// result line. The rest are inmem-only or zero when all is well, which
	// the driver's contract rules out; the suite, -compare and -aa still
	// report and bound them.
	Listed bool
	// Exact marks a per-layer count that must repeat exactly between two
	// replays of the same workload and seed.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// A listed bound is three times the widest interquartile spread the metric
// showed over ten seeds on any workload, rounded up to a twentieth and capped
// at the contract's 0.25 (README.md, Steadiness, has the spreads).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Listed: true},
	{Name: "build_s", Unit: "s", Better: lower, Bound: 0.25, Listed: true},
	{Name: "generate_s", Unit: "s", Better: lower, Bound: 0.25, Listed: true},
	{Name: "rows_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Listed: true},
	{Name: "mb_per_s", Unit: "MB/s", Better: higher, Bound: 0.25, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25, Listed: true},
	{Name: "validate_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "mean_rel_err_pct", Unit: "%", Better: lower},
	{Name: "max_rel_err_pct", Unit: "%", Better: lower},
	{Name: "failed_ops_pct", Unit: "%", Better: lower},
}

// perLayer lists the traced replay's metrics, layer = module name. Times are
// spans the harness records around its own calls into the layer; busy times
// (cs, cp, pf, fill) are sums across workers; counts are exact at a fixed
// seed. A layer a workload's pipeline does not run reports 0.
var perLayer = []metricDef{
	{Name: "workload.original_s", Unit: "s", Better: lower},
	{Name: "sqlparse.parse_s", Unit: "s", Better: lower},

	{Name: "trace.annotate_s", Unit: "s", Better: lower},
	{Name: "trace.templates", Unit: "count", Better: lower, Exact: true},
	{Name: "rewrite.rewrite_s", Unit: "s", Better: lower},
	{Name: "genplan.build_s", Unit: "s", Better: lower},

	{Name: "nonkey.generate_tables_s", Unit: "s", Better: lower},
	{Name: "nonkey.decouple_s", Unit: "s", Better: lower},
	{Name: "nonkey.distribute_s", Unit: "s", Better: lower},
	{Name: "nonkey.gd_s", Unit: "s", Better: lower},
	{Name: "nonkey.sample_s", Unit: "s", Better: lower},
	{Name: "nonkey.acc_s", Unit: "s", Better: lower},
	{Name: "nonkey.retained_cells", Unit: "count", Better: lower, Exact: true},
	{Name: "nonkey.fill_keygen_s", Unit: "s", Better: lower},
	{Name: "nonkey.fill_keygen_cells", Unit: "count", Better: lower, Exact: true},
	{Name: "nonkey.fill_keygen_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "nonkey.fill_export_s", Unit: "s", Better: lower},
	{Name: "nonkey.fill_export_cells", Unit: "count", Better: lower, Exact: true},
	{Name: "nonkey.fill_mcells_per_s", Unit: "Mcells/s", Better: higher},
	{Name: "nonkey.regen_amplification", Unit: "x", Better: lower},

	{Name: "keygen.populate_s", Unit: "s", Better: lower},
	{Name: "keygen.cs_s", Unit: "s", Better: lower},
	{Name: "keygen.cp_s", Unit: "s", Better: lower},
	{Name: "keygen.pf_s", Unit: "s", Better: lower},
	{Name: "keygen.cp_rounds", Unit: "count", Better: lower, Exact: true},
	{Name: "keygen.partitions", Unit: "count", Better: lower, Exact: true},
	{Name: "keygen.waves", Unit: "count", Better: lower, Exact: true},
	{Name: "keygen.wave_max_s", Unit: "s", Better: lower},
	{Name: "keygen.degradations", Unit: "count", Better: lower, Exact: true},
	{Name: "keygen.cp_budget", Unit: "count", Better: lower, Exact: true},

	{Name: "engine.window_eval_s", Unit: "s", Better: lower},
	{Name: "engine.replay_s", Unit: "s", Better: lower},
	{Name: "engine.replay_mrows_per_s", Unit: "Mrows/s", Better: higher},

	{Name: "storage.stream_csv_s", Unit: "s", Better: lower},
	{Name: "storage.sink_write_s", Unit: "s", Better: lower},
	{Name: "storage.sink_write_calls", Unit: "count", Better: lower},
	{Name: "storage.sink_commit_s", Unit: "s", Better: lower},
	{Name: "storage.sink_failed_calls", Unit: "count", Better: lower},
	{Name: "storage.export_dir_s", Unit: "s", Better: lower},
	{Name: "storage.encode_only_s", Unit: "s", Better: lower},
	{Name: "storage.encode_only_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "storage.rows_out", Unit: "count", Better: higher, Exact: true},
	{Name: "storage.bytes_out", Unit: "count", Better: lower, Exact: true},
	{Name: "storage.shards", Unit: "count", Better: lower, Exact: true},

	{Name: "validate.workload_s", Unit: "s", Better: lower},
	{Name: "validate.queries", Unit: "count", Better: higher, Exact: true},
	{Name: "validate.unsupported", Unit: "count", Better: lower, Exact: true},

	{Name: "parallel.p1_generate_s", Unit: "s", Better: lower},
	{Name: "parallel.speedup_x", Unit: "x", Better: higher},

	{Name: "replay.layers_sum_s", Unit: "s", Better: lower},
	{Name: "replay.gap_pct", Unit: "%", Better: lower},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different workloads or metrics.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Listed {
			m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m) // a struct of strings and numbers cannot fail to encode
	return []byte(sb.String())
}
