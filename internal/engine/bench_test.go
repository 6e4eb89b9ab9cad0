package engine

import (
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/workload"
)

// benchSF sizes the benchmark databases (SF here ≈ official SF / 100, as in
// the experiments): 0.5 keeps a full workload pass in the millisecond range
// so `go test -bench` finishes quickly while still being dominated by
// executor inner loops rather than setup.
const benchSF = 0.5

// benchScenario materializes one workload once per benchmark and reports the
// number of base-table rows a full workload pass scans (every leaf view reads
// its whole table), the denominator of the rows/sec metric.
func benchScenario(b *testing.B, name string) (*Engine, []*relalg.AQT, int64) {
	b.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	_, db, templates, err := workload.Materialize(spec, benchSF, 11)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(db)
	if err != nil {
		b.Fatal(err)
	}
	var rows int64
	for _, q := range templates {
		q.Root.Walk(func(v *relalg.View) {
			if v.Kind == relalg.LeafView {
				rows += int64(db.Table(v.Table).Rows())
			}
		})
	}
	return eng, templates, rows
}

// BenchmarkExecuteWorkload times one full execution pass over every template
// of a scenario (the engine's role in tracing and validation), reporting
// ns/op, allocs/op and rows/sec.
func BenchmarkExecuteWorkload(b *testing.B) {
	for _, name := range []string{"ssb", "tpch"} {
		b.Run(name, func(b *testing.B) {
			eng, templates, rows := benchScenario(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range templates {
					if _, err := eng.Execute(q, true); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkSelection isolates the selection operator: one predicate over the
// TPC-H lineitem-equivalent at benchSF.
func BenchmarkSelection(b *testing.B) {
	eng, templates, _ := benchScenario(b, "tpch")
	// Pick the template with the largest leaf scan to stress selection.
	var q *relalg.AQT
	var best int
	db := eng.DB()
	for _, t := range templates {
		n := 0
		t.Root.Walk(func(v *relalg.View) {
			if v.Kind == relalg.LeafView {
				n += db.Table(v.Table).Rows()
			}
		})
		if n > best {
			best, q = n, t
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectRows times the materializing definition of a row set —
// CollectRows, the oracle — over the first join view of the workload.
// BenchmarkCollectRowsUnit (bench_unit_test.go) times what keygen actually
// runs: a whole FK unit's requests through CollectRowSetsCtx.
func BenchmarkCollectRows(b *testing.B) {
	spec, err := workload.ByName("ssb")
	if err != nil {
		b.Fatal(err)
	}
	_, db, templates, err := workload.Materialize(spec, benchSF, 11)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(db)
	if err != nil {
		b.Fatal(err)
	}
	var join *relalg.View
	var table string
	for _, q := range templates {
		q.Root.Walk(func(v *relalg.View) {
			if join == nil && v.Kind == relalg.JoinView {
				join, table = v, v.Join.FKTable
			}
		})
		if join != nil {
			break
		}
	}
	if join == nil {
		b.Fatal("no join view in ssb workload")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CollectRows(join, table, true); err != nil {
			b.Fatal(err)
		}
	}
}
