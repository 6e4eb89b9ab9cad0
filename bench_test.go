package mirage

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 8). Each benchmark wraps the corresponding
// internal/experiments runner; `go test -bench=. -benchmem` regenerates the
// numbers recorded in EXPERIMENTS.md, and `cmd/miragebench` prints the
// formatted rows/series.
//
// The default scale keeps every benchmark laptop-sized (SF here ≈ official
// SF / 100); raise -benchtime or edit benchSF for larger runs.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/dbhammer/mirage/internal/experiments"
	"github.com/dbhammer/mirage/internal/workload"
)

func benchWorkloadByName(name string) (*workload.Spec, error) { return workload.ByName(name) }

func benchGenerateOriginal(schema *Schema) (*DB, error) { return workload.GenerateOriginal(schema, 11) }

const benchSF = 0.5

func benchCfg() experiments.Config {
	return experiments.Config{SF: benchSF, Seed: 11}
}

// BenchmarkTable1SupportMatrix probes all three generators' operator
// envelopes against the three workloads (Table 1).
func BenchmarkTable1SupportMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 11: per-query relative error, Mirage vs Touchstone vs Hydra.

func benchFig11(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig11(workload, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		reportMeanError(b, r)
	}
}

func reportMeanError(b *testing.B, r *experiments.Fig11Result) {
	for tool, errs := range r.Errors {
		var sum float64
		for _, e := range errs {
			sum += e
		}
		b.ReportMetric(100*sum/float64(len(errs)), tool+"_mean_err_%")
	}
}

func BenchmarkFig11SSB(b *testing.B)   { benchFig11(b, "ssb") }
func BenchmarkFig11TPCH(b *testing.B)  { benchFig11(b, "tpch") }
func BenchmarkFig11TPCDS(b *testing.B) { benchFig11(b, "tpcds") }

// Fig. 12: latency fidelity on the Mirage-generated database.

func benchFig12(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig12(workload, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var dev float64
		for j := range r.Queries {
			if r.Original[j] > 0 {
				d := float64(r.Synthetic[j]-r.Original[j]) / float64(r.Original[j])
				if d < 0 {
					d = -d
				}
				dev += d
			}
		}
		b.ReportMetric(100*dev/float64(len(r.Queries)), "mean_latency_dev_%")
	}
}

func BenchmarkFig12SSB(b *testing.B)  { benchFig12(b, "ssb") }
func BenchmarkFig12TPCH(b *testing.B) { benchFig12(b, "tpch") }

// Fig. 13: generation time vs scale factor (linearity check).

func benchFig13(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13(workload, benchCfg(), []float64{0.25, 0.5, 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Tool == "mirage" {
				b.ReportMetric(float64(p.GenTime.Milliseconds()), "mirage_sf"+sfLabel(p.SF)+"_ms")
			}
		}
	}
}

func sfLabel(sf float64) string {
	switch {
	case sf >= 1:
		return "1"
	case sf >= 0.5:
		return "05"
	default:
		return "025"
	}
}

func BenchmarkFig13SSB(b *testing.B)  { benchFig13(b, "ssb") }
func BenchmarkFig13TPCH(b *testing.B) { benchFig13(b, "tpch") }

// Fig. 14: batch size vs stage times, rounds and memory.

func BenchmarkFig14TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14("tpch", benchCfg(), []int64{10_000, 40_000, 70_000})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(float64(p.CP.Milliseconds()), "cp_ms_batch_"+itoa(p.BatchSize))
		}
	}
}

// Fig. 15/16: query-count sweeps.

func BenchmarkFig15TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15("tpch", benchCfg(), []int{6, 11, 16, 22})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(float64((last.GD + last.CS + last.CP + last.PF).Milliseconds()), "gen_ms_22q")
	}
}

func BenchmarkFig16TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15("tpch", benchCfg(), []int{22})
		if err != nil {
			b.Fatal(err)
		}
		p := r.Points[0]
		b.ReportMetric(float64((p.Decouple + p.Distrib).Microseconds()), "portray_us")
		b.ReportMetric(float64((p.Sample + p.ACC).Microseconds()), "acc_us")
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Component micro-benchmarks: the building blocks' standalone cost.

func BenchmarkGenerateSSB(b *testing.B) {
	spec, schema, original, w := loadBenchScenario(b, "ssb")
	_ = spec
	for i := 0; i < b.N; i++ {
		wc := w.Clone()
		prob, err := BuildProblem(original, wc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Generate(prob, Options{Seed: 11}); err != nil {
			b.Fatal(err)
		}
	}
	_ = schema
}

func BenchmarkGenerateTPCH(b *testing.B) {
	_, _, original, w := loadBenchScenario(b, "tpch")
	for i := 0; i < b.N; i++ {
		wc := w.Clone()
		prob, err := BuildProblem(original, wc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Generate(prob, Options{Seed: 11}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup times the end-to-end TPC-H generation pipeline
// (non-key + key generators, problem building excluded) at worker counts
// 1, 2 and GOMAXPROCS. The generated database is byte-identical across the
// sub-benchmarks — only wall time changes — so the ns/op ratio is the
// speedup of the concurrency layer.
func BenchmarkParallelSpeedup(b *testing.B) {
	pars := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g > 2 {
		pars = append(pars, g)
	}
	_, _, original, w := loadBenchScenario(b, "tpch")
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wc := w.Clone()
				prob, err := BuildProblem(original, wc)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Generate(prob, Options{Seed: 11, Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loadBenchScenario prepares a traced scenario once per benchmark.
func loadBenchScenario(b *testing.B, name string) (string, *Schema, *DB, *Workload) {
	b.Helper()
	spec, err := benchWorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	schema := spec.NewSchema(benchSF)
	original, err := benchGenerateOriginal(schema)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return name, schema, original, w
}
