package nonkey

import (
	"fmt"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// PlanSource regenerates any [lo,hi) chunk of one table's columns on demand:
// retained columns are copied from storage, the primary key is the dense
// domain 1..Rows, and every other column is recomputed from the table's
// non-key layout — byte-identical to what an in-memory run would have
// stored. It implements both storage.RowSource (the streaming CSV exporter)
// and engine.ChunkSource (windowed evaluation), so export and out-of-core
// keygen share one regeneration path.
type PlanSource struct {
	t    *storage.TableData
	plan *TablePlan
}

// NewPlanSource builds the chunk source of one table. plan may be nil for
// tables with no non-key plan (then only retained columns and the primary
// key are servable).
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
	vals, err := s.t.Lookup(col)
	if err != nil {
		return err
	}
	if err := storage.CheckFillRange(s.t.Meta.Name, col, s.NumRows(), len(dst), lo, hi); err != nil {
		return fmt.Errorf("nonkey: %w", err)
	}
	if vals != nil {
		copy(dst, vals[lo:hi])
		return nil
	}
	if s.t.Meta.PrimaryKey().Name == col {
		for r := lo; r < hi; r++ {
			dst[r-lo] = r + 1
		}
		return nil
	}
	if s.plan == nil {
		return fmt.Errorf("nonkey: table %s has no generation plan for column %s", s.t.Meta.Name, col)
	}
	return s.plan.fill(col, dst, lo, hi)
}
