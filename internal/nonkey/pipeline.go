package nonkey

import (
	"context"

	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// GenerateTables runs the full non-key pipeline — PlanTable, Materialize,
// InstantiateACCs — for every listed table, on up to cfg.Parallelism
// workers. Tables are independent here: each one reads only its own
// selection constraints and writes only its own TableData and selection/ACC
// parameters (selection predicates are single-table after the rewriter's
// pushdown, so no Param is shared across tables). Per-table plans and the
// merged Stats are accumulated in the given table order regardless of
// completion order, and all randomness is derived per (table, column), so
// the generated bytes are identical at any worker count.
//
// The trailing int64 is ignored; it stays because benchmark/replay.go passes
// it.
func GenerateTables(ctx context.Context, cfg Config, db *storage.DB, tables []*relalg.Table,
	sels map[string][]*genplan.SelCons, _ int64) (map[string]*TablePlan, Stats, error) {
	planned := make([]*TablePlan, len(tables))
	stageSpan := obs.FromContext(ctx)
	err := parallel.ForEachCtx(ctx, "nonkey/tables", cfg.Parallelism, len(tables), func(i int) error {
		tbl := tables[i]
		var sp *obs.Span
		if stageSpan != nil {
			sp = stageSpan.Child("table:" + tbl.Name)
		}
		defer sp.End()
		tp, err := PlanTable(cfg, tbl, sels[tbl.Name])
		if err != nil {
			return err
		}
		var retain map[string]bool
		if cfg.Retain != nil {
			retain = cfg.Retain[tbl.Name]
			if retain == nil {
				retain = map[string]bool{}
			}
		}
		data := db.Table(tbl.Name)
		if _, err := tp.Materialize(ctx, data, cfg.Seed, cfg.Parallelism, retain); err != nil {
			return err
		}
		if err := InstantiateACCs(cfg, tp, data); err != nil {
			return err
		}
		obs.From(ctx).Events().Emit(obs.Event{Type: obs.EventTableGenerated, Table: tbl.Name, Rows: tbl.Rows})
		// Out-of-core mode: the ACC-sampled columns were materialized only
		// for parameter instantiation; drop the ones nothing else reads.
		if cfg.Retain != nil {
			for col := range tp.accColumns() {
				if !retain[col] {
					data.SetCol(col, nil)
				}
			}
		}
		planned[i] = tp
		return nil
	})
	plans := make(map[string]*TablePlan, len(tables))
	var total Stats
	for i, tbl := range tables {
		if planned[i] == nil {
			continue
		}
		plans[tbl.Name] = planned[i]
		total.Add(planned[i].Stats)
	}
	if err != nil {
		return nil, total, err
	}
	return plans, total, nil
}
