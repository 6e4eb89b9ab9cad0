package mirage

// Out-of-core benchmarks: what streaming buys in peak memory and what each
// export path sustains in throughput. `make bench` records these metrics
// (peak MB per mode, peak ratio, export MB/s) into BENCH_engine.json.

import (
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/storage"
)

// BenchmarkStreamingMemory runs the full two-arm memory comparison at a
// scale where the database dominates fixed overheads, and reports each
// arm's heap high-water mark plus the headline ratio. The streamed arm runs
// the large-SF recipe (original released after planning, no validation
// columns retained); the in-memory arm is the classic pipeline exactly as
// miragegen executes it.
func BenchmarkStreamingMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunMemoryComparison("tpch", 4, Options{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.InMem.PeakHeapMB, "inmem_peak_mb")
		b.ReportMetric(r.Stream.PeakHeapMB, "stream_peak_mb")
		b.ReportMetric(r.Ratio(), "peak_ratio_x")
		b.ReportMetric(r.InMem.MBPerSec, "inmem_pipeline_mb_s")
		b.ReportMetric(r.Stream.MBPerSec, "stream_pipeline_mb_s")
	}
}

// BenchmarkPaperScaleMemory is the acceptance benchmark of windowed
// evaluation: TPC-H at SF 50 streamed under a 512 MiB soft memory limit
// versus the unconstrained in-memory pipeline. `make bench` records the
// peak heaps and the ratio into BENCH_engine.json, and CI's regression
// guard (cmd/benchjson -check-stream-ratio) fails the build if the recorded
// ratio drops below 4x.
func BenchmarkPaperScaleMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunPaperScaleMemory("tpch", 50, 512<<20, Options{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.InMem.PeakHeapMB, "inmem_peak_mb")
		b.ReportMetric(r.Stream.PeakHeapMB, "stream_peak_mb")
		b.ReportMetric(r.Ratio(), "peak_ratio_x")
		b.ReportMetric(r.InMem.MBPerSec, "inmem_pipeline_mb_s")
		b.ReportMetric(r.Stream.MBPerSec, "stream_pipeline_mb_s")
	}
}

// TestMemoryComparisonSmoke pins the two-arm harness the streaming
// benchmarks stand on: both arms must complete at a small scale, export the
// same bytes (RunMemoryComparison fails internally otherwise), and report
// non-degenerate peaks — a refactor that broke an arm or the byte check
// would otherwise surface only as silently wrong BENCH numbers.
func TestMemoryComparisonSmoke(t *testing.T) {
	r, err := RunMemoryComparison("ssb", 0.2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows <= 0 || r.Bytes <= 0 {
		t.Fatalf("degenerate comparison: rows=%d bytes=%d", r.Rows, r.Bytes)
	}
	if r.InMem.PeakHeapMB <= 0 || r.Stream.PeakHeapMB <= 0 || r.Ratio() <= 0 {
		t.Fatalf("degenerate peaks: inmem=%.1f stream=%.1f ratio=%.2f",
			r.InMem.PeakHeapMB, r.Stream.PeakHeapMB, r.Ratio())
	}
	if r.Format() == "" {
		t.Fatal("empty formatted report")
	}

	p, err := RunPaperScaleMemory("ssb", 0.2, 1<<30, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bytes != r.Bytes {
		t.Fatalf("paper-scale harness exported %d bytes, comparison harness %d", p.Bytes, r.Bytes)
	}
	if p.Stream.PeakHeapMB <= 0 || p.Ratio() <= 0 {
		t.Fatalf("degenerate paper-scale peaks: %+v", p)
	}
}

// BenchmarkExportThroughput isolates the export stage over one already
// generated TPC-H database: the sequential reference encoder the byte-identity
// tests compare against versus the production path, the sharded streaming
// writer (which adds shard scheduling and the ordered writer goroutine but
// encodes shards in parallel). Both write the same bytes into a counting
// sink.
func BenchmarkExportThroughput(b *testing.B) {
	_, _, original, w := loadBenchScenario(b, "tpch")
	prob, err := BuildProblem(original, w)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	db, codecs := res.DB, prob.Workload.Codecs

	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n countWriter
			start := time.Now()
			for _, t := range db.Schema.Tables {
				if err := storage.ExportCSV(&n, db.Table(t.Name), codecs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mbPerSec(int64(n), time.Since(start)), "mb_per_s")
		}
	})
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := &storage.CountSink{}
			start := time.Now()
			for _, t := range db.Schema.Tables {
				if _, err := storage.StreamTable(b.Context(), sink, storage.TableSource(db.Table(t.Name)), codecs, 0, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mbPerSec(sink.Bytes(), time.Since(start)), "mb_per_s")
		}
	})
}

// countWriter counts the bytes written to it.
type countWriter int64

func (n *countWriter) Write(p []byte) (int, error) {
	*n += countWriter(len(p))
	return len(p), nil
}
