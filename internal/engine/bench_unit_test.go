package engine_test

// The unit-shaped engine benchmark lives in the external test package: it
// needs a built generation problem, and the packages that build one import
// the engine.

import (
	"context"
	"testing"

	mirage "github.com/dbhammer/mirage"
	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/workload"
)

// BenchmarkCollectRowsUnit times what keygen's CS stage asks the engine for
// in one FK unit: every (view, table) request of SSB's last-wave unit — the
// fact table's fourth foreign key, whose views join lineorder with the three
// dimensions populated before it — in one CollectRowSetsCtx call over a
// generated database. BenchmarkCollectRows beside it times the materializing
// oracle on a single join; this is the production path, chains and
// reductions together.
func BenchmarkCollectRowsUnit(b *testing.B) {
	spec, err := workload.ByName("ssb")
	if err != nil {
		b.Fatal(err)
	}
	schema := spec.NewSchema(4)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		b.Fatal(err)
	}
	w, err := mirage.NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := mirage.BuildProblem(original, w)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mirage.Generate(prob, mirage.Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	waves := prob.Plan.Waves()
	unit := waves[len(waves)-1][0]
	var reqs []engine.RowSetRequest
	for _, jc := range unit.Joins {
		reqs = append(reqs,
			engine.RowSetRequest{View: jc.LeftView, Table: jc.Spec.PKTable},
			engine.RowSetRequest{View: jc.RightView, Table: jc.Spec.FKTable})
	}
	eng, err := engine.New(res.DB)
	if err != nil {
		b.Fatal(err)
	}
	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets, err := eng.CollectRowSetsCtx(context.Background(), reqs, false)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, s := range sets {
			rows += int64(s.Len())
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests")
	b.ReportMetric(float64(rows), "rows")
}
