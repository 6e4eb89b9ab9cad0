package engine

import (
	"context"
	"fmt"

	"github.com/dbhammer/mirage/internal/relalg"
)

// CollectRows executes a view subtree and returns the distinct row indices
// of one base table appearing (non-padded) in its output, in ascending
// order — the definition of a row set (Section 5's V_l / V_r, including views
// that are earlier join outputs), for any view shape: the view is evaluated
// into a relation, and the table's column of it deduplicated over a bitset
// whose ascending walk yields the result sorted.
//
// It is the materializing definition and the test oracle. No production code
// calls it: the key generator asks through CollectRowSetsCtx, which answers
// by window passes and semi-join reduction and comes here only for view
// shapes it cannot reduce.
func (e *Engine) CollectRows(root *relalg.View, table string, orig bool) ([]int32, error) {
	s, err := e.collectRows(root, table, orig, &Result{Stats: make(map[*relalg.View]Stats)})
	if err != nil || s.n == 0 {
		return nil, err
	}
	return s.bits.appendRange(make([]int32, 0, s.n), 0, 64*len(s.bits)), nil
}

// collectRows is CollectRows answering with a RowSet, recording every
// evaluated view's cardinality in res.
func (e *Engine) collectRows(root *relalg.View, table string, orig bool, res *Result) (*RowSet, error) {
	rel, err := e.eval(root, orig, res)
	if err != nil {
		return nil, fmt.Errorf("engine: collect rows of %s: %w", table, err)
	}
	ti := rel.tableIdx(table)
	if ti < 0 {
		return nil, fmt.Errorf("engine: table %s not in view output %v", table, rel.Tables())
	}
	seen := newBitset(e.db.Table(table).Rows())
	for _, ri := range rel.cols[ti] {
		if ri >= 0 {
			seen.set(int(ri))
		}
	}
	return &RowSet{bits: seen, n: seen.count()}, nil
}

// CollectRowSetsCtx returns, for all the row sets one consumer needs — every
// input view of an FK unit's joins — what CollectRows defines, without
// building the views. The requests are answered together, the same way on
// every engine: each base table is scanned once, window by window, for all
// the selection chains over it in any of the views; a view that is such a
// chain over the requested table is answered by the chain's bitset; a view
// that joins chains by equi-joins, no table twice, is answered by semi-join
// reduction over the scans' results (reduce.go); and only a view outside that
// class — none of the built-in workloads produces one, and
// engine_rowset_materialized_total counts them — is evaluated as CollectRows
// does. A windowed engine regenerates the columns storage does not hold; a
// classic engine widens its stored columns window by window and derives a
// primary key a predicate names. ctx is polled at every window boundary, so cancellation
// lands mid-evaluation. The sets come back in request order; requests that
// are the same chain share one set, and no set may be written.
func (e *Engine) CollectRowSetsCtx(ctx context.Context, reqs []RowSetRequest, orig bool) ([]*RowSet, error) {
	return e.collectRowSets(ctx, reqs, orig, &Result{Stats: make(map[*relalg.View]Stats)})
}
