package nonkey

import (
	"fmt"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// PlanSource regenerates any [lo,hi) chunk of one table's columns on demand:
// what storage's TableData.Fill serves (stored columns, the derived primary
// key) comes from there, and every other column is recomputed from the
// table's non-key layout — byte-identical to what an in-memory run would
// have stored. It implements both storage.RowSource (the streaming CSV
// exporter) and engine.ChunkSource (windowed evaluation), so export and
// out-of-core keygen share one regeneration path.
type PlanSource struct {
	t    *storage.TableData
	plan *TablePlan
}

// NewPlanSource builds the chunk source of one table. plan may be nil for
// tables with no non-key plan (then only stored columns and the primary key
// are servable).
func NewPlanSource(t *storage.TableData, plan *TablePlan) *PlanSource {
	return &PlanSource{t: t, plan: plan}
}

// Meta returns the table schema.
func (s *PlanSource) Meta() *relalg.Table { return s.t.Meta }

// NumRows returns the table's row count.
func (s *PlanSource) NumRows() int64 { return int64(s.t.Rows()) }

// Fill writes rows [lo,hi) of the named column into dst[0:hi-lo]. A range
// outside the table or longer than dst is an error and leaves dst untouched.
func (s *PlanSource) Fill(col string, dst []int64, lo, hi int64) error {
	switch err := s.t.Fill(col, dst, lo, hi); {
	case err == nil:
		return nil
	case err != storage.ErrNotMaterialized:
		return fmt.Errorf("nonkey: %w", err)
	case s.plan == nil:
		return fmt.Errorf("nonkey: table %s has no generation plan for column %s", s.t.Meta.Name, col)
	}
	return s.plan.fill(col, dst, lo, hi)
}
