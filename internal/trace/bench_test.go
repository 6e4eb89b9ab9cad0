package trace

import (
	"testing"

	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/workload"
)

// BenchmarkAnnotateSSB annotates SSB's 13 templates and their rewritten
// forests over the SF 4 original database (lineorder 240 000 rows), the way
// BuildProblem does on one worker: AnnotateAQT, Rewrite, AnnotateForest.
func BenchmarkAnnotateSSB(b *testing.B) {
	spec, err := workload.ByName("ssb")
	if err != nil {
		b.Fatal(err)
	}
	schema, db, templates, err := workload.Materialize(spec, 4, 11)
	if err != nil {
		b.Fatal(err)
	}
	rw := rewrite.New(schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ann, err := New(db)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range templates {
			if err := ann.AnnotateAQT(q); err != nil {
				b.Fatal(err)
			}
			f, err := rw.Rewrite(q)
			if err != nil {
				b.Fatal(err)
			}
			if err := ann.AnnotateForest(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(templates)*b.N)/b.Elapsed().Seconds(), "templates/s")
}
