package trace

import (
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

// annotateAll annotates the templates and their rewritten forests the way
// BuildProblem does on one worker: AnnotateAQT, Rewrite, AnnotateForest.
func annotateAll(b *testing.B, schema *relalg.Schema, db *storage.DB, templates []*relalg.AQT) {
	rw := rewrite.New(schema)
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

// BenchmarkAnnotateSSB annotates SSB's 13 templates and their rewritten
// forests over the SF 4 original database (lineorder 240 000 rows).
func BenchmarkAnnotateSSB(b *testing.B) {
	spec, err := workload.ByName("ssb")
	if err != nil {
		b.Fatal(err)
	}
	schema, db, templates, err := workload.Materialize(spec, 4, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	annotateAll(b, schema, db, templates)
}

// BenchmarkAnnotateTPCH annotates TPC-H templates and their forests over the
// SF 1 original database (lineitem 60 000 rows): each template whose outer,
// semi or anti join or MultiView used to be evaluated by joining, alone, and
// all 22.
func BenchmarkAnnotateTPCH(b *testing.B) {
	spec, err := workload.ByName("tpch")
	if err != nil {
		b.Fatal(err)
	}
	schema, db, templates, err := workload.Materialize(spec, 1, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"q13", "q16", "q18", "q20", "q21", "q22"} {
		b.Run(name, func(b *testing.B) {
			for _, q := range templates {
				if q.Name == name {
					annotateAll(b, schema, db, []*relalg.AQT{q})
				}
			}
		})
	}
	b.Run("all", func(b *testing.B) { annotateAll(b, schema, db, templates) })
}
