package engine

import (
	"context"
	"fmt"

	"github.com/dbhammer/mirage/internal/relalg"
)

// CollectRows executes a view subtree and returns the distinct row indices
// of one base table appearing (non-padded) in its output, in ascending
// order. The key generator uses this to materialize the PK-side and FK-side
// row sets of every join view on the partially generated database
// (Section 5's V_l / V_r, including views that are earlier join outputs).
//
// Distinct tracking runs over a bitset sized by the base table, and the
// ascending bit walk yields the result already sorted — the row-at-a-time
// engine's seen-map plus sort is gone.
func (e *Engine) CollectRows(root *relalg.View, table string, orig bool) ([]int32, error) {
	return e.collectRows(root, table, orig, &Result{Stats: make(map[*relalg.View]Stats)})
}

func (e *Engine) collectRows(root *relalg.View, table string, orig bool, res *Result) ([]int32, error) {
	rel, err := e.eval(root, orig, res)
	if err != nil {
		return nil, fmt.Errorf("engine: collect rows of %s: %w", table, err)
	}
	ti := rel.tableIdx(table)
	if ti < 0 {
		return nil, fmt.Errorf("engine: table %s not in view output %v", table, rel.Tables())
	}
	seen := newBitset(e.db.Table(table).Rows())
	n := 0
	for _, ri := range rel.cols[ti] {
		if ri >= 0 && !seen.test(int(ri)) {
			seen.set(int(ri))
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	return seen.appendSet(make([]int32, 0, n)), nil
}

// CollectRowSetsCtx is CollectRows for all the row sets one consumer needs —
// every input view of an FK unit's joins — with out-of-core semantics. On a
// windowed engine the requests are evaluated together: each base table is
// scanned once, window by window, for all the selection chains over it in
// any of the views, and a view that is such a chain over the requested
// table streams into a (possibly disk-spilled) RowSet without ever
// materializing the predicate columns or an intermediate relation. Every
// other shape evaluates as CollectRows does, its chains taken from the
// scans, and is wrapped in an in-memory set; a classic engine evaluates
// each request that way. ctx is polled at every window boundary, so
// cancellation lands mid-evaluation. The sets come back in request order and
// the caller must Release each one once its rows are consumed; on error
// nothing is left to release.
func (e *Engine) CollectRowSetsCtx(ctx context.Context, reqs []RowSetRequest, orig bool) ([]*RowSet, error) {
	return e.collectRowSets(ctx, reqs, orig, &Result{Stats: make(map[*relalg.View]Stats)})
}

// collectRowSets is CollectRowSetsCtx recording every evaluated view's
// cardinality in res.
func (e *Engine) collectRowSets(ctx context.Context, reqs []RowSetRequest, orig bool, res *Result) ([]*RowSet, error) {
	if e.win != nil {
		e.win.ctx = ctx
		defer func() { e.win.ctx = nil }()
		return e.collectWindowed(reqs, orig, res)
	}
	sets := make([]*RowSet, len(reqs))
	for i, rq := range reqs {
		rows, err := e.collectRows(rq.View, rq.Table, orig, res)
		if err != nil {
			return nil, err
		}
		sets[i] = &RowSet{mem: rows, n: len(rows)}
	}
	return sets, nil
}

// CollectRowSet is the one-request case of CollectRowSetsCtx without a
// context: a thin wrapper kept for tests, with no production caller.
func (e *Engine) CollectRowSet(root *relalg.View, table string, orig bool) (*RowSet, error) {
	return e.CollectRowSetCtx(context.Background(), root, table, orig)
}

// CollectRowSetCtx is the one-request case of CollectRowSetsCtx.
func (e *Engine) CollectRowSetCtx(ctx context.Context, root *relalg.View, table string, orig bool) (*RowSet, error) {
	sets, err := e.CollectRowSetsCtx(ctx, []RowSetRequest{{View: root, Table: table}}, orig)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}
