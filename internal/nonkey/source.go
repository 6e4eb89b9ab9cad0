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
	err := s.t.Fill(col, dst, lo, hi)
	if err == nil {
		return nil
	}
	g, err := s.layout(col, err)
	if err != nil {
		return err
	}
	g.Fill(dst, lo, hi)
	return nil
}

// Gather writes the value of row rows[j] of the named column into dst[j] for
// every j, rows in any order: a stored column and the primary key through
// storage's TableData.Gather, any other column from its layout
// (ColumnGen.Gather). A row outside the table or a dst shorter than rows is
// an error and leaves dst untouched.
func (s *PlanSource) Gather(col string, dst []int64, rows []int32) error {
	err := s.t.Gather(col, dst, rows)
	if err == nil {
		return nil
	}
	g, err := s.layout(col, err)
	if err != nil {
		return err
	}
	g.Gather(dst, rows)
	return nil
}

// layout returns the layout that regenerates col after storage's read of it
// failed with err: only ErrNotMaterialized, which storage returns once it
// has checked the request, leads to one.
func (s *PlanSource) layout(col string, err error) (*ColumnGen, error) {
	switch {
	case err != storage.ErrNotMaterialized:
		return nil, fmt.Errorf("nonkey: %w", err)
	case s.plan == nil:
		return nil, fmt.Errorf("nonkey: table %s has no generation plan for column %s", s.t.Meta.Name, col)
	}
	return s.plan.gen(col)
}
