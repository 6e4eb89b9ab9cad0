package engine

// Semi-join reduction: how CollectRowSetsCtx answers a join-shaped request
// without building the join. The key generator only ever asks which rows of
// one table appear in a view's output. For a view made of selection chains
// over leaves and equi-joins, no base table twice, that set is the table's
// semi-join reduction: the join tree is acyclic, so a row survives iff it
// passes its own chain and, across every join on the way, references (or is
// referenced by) a surviving row of the other side. The restrictions travel
// down the tree as row tests — a bitset over a PK domain each — and the
// answer is the requested table's chain rows filtered by the tests that
// reached it, a bitset like every row set. No Relation, no CSR index, no
// output tuple is materialized. See DESIGN.md §7.

import (
	"context"
	"fmt"
	"slices"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// reducible reports whether every row set of v is a semi-join reduction: v is
// built from selection chains over leaves and equi-joins only, each base
// table once. Anything else — an outer, semi or anti join, a selection over a
// join output, a projection, a table under both inputs of a join — has to be
// evaluated.
func reducible(v *relalg.View) bool { return joinTree(v, true) }

// joinTree reports whether v is built from selection chains over leaves and
// joins — equi-joins only, with equiOnly — each base table once: the cores
// the reduction (equi-joins) and Count (every join type) answer.
func joinTree(v *relalg.View, equiOnly bool) bool {
	var tables []string
	var walk func(v *relalg.View) bool
	walk = func(v *relalg.View) bool {
		if leaf, _, ok := relalg.SelectChain(v); ok {
			if slices.Contains(tables, leaf.Table) {
				return false
			}
			tables = append(tables, leaf.Table)
			return true
		}
		return v.Kind == relalg.JoinView && len(v.Inputs) == 2 &&
			(v.Join.Type == relalg.EquiJoin || !equiOnly && v.Join.Type <= relalg.RightAntiJoin && v.Join.Type >= 0) &&
			walk(v.Inputs[0]) && walk(v.Inputs[1])
	}
	return walk(v)
}

// viewTables lists the base tables under v, left to right — the table order
// of the relation eval would produce.
func viewTables(v *relalg.View) []string {
	var tables []string
	v.Walk(func(n *relalg.View) {
		if n.Kind == relalg.LeafView {
			tables = append(tables, n.Table)
		}
	})
	return tables
}

// rowTest is one restriction a join puts on a table's rows: row r passes when
// set holds r's key. On the join's FK table the key is the row's foreign key
// (fk, valid in [1, n], stored as value-1); on its PK table, fk is nil and
// the key is the row index itself.
type rowTest struct {
	fk  *storage.Column
	n   int
	set bitset
}

// filter writes the rows of src that pass into dst and returns them; dst
// needs len(src) room and may be src itself. src is one window's rows, so
// the FK column is read a window at a time, at its width. NULL, < 1 and > n
// foreign keys match nothing, exactly join's probeBucket rule. Neither loop
// branches on a row's outcome.
func (t rowTest) filter(dst, src []int32) []int32 {
	if t.fk == nil {
		dst = dst[:len(src)]
		k := 0
		for _, r := range src {
			dst[k] = r
			k += t.set.bit(uint64(r))
		}
		return dst[:k]
	}
	return keepFKCol(dst, src, t.fk, t.set, t.n)
}

// reduction is the state of one request's reduction: the chains the table
// passes of the call evaluated, and the row tests pushed down so far, by the
// table they restrict (each table occurs once, so each test has one taker).
type reduction struct {
	e      *Engine
	ctx    context.Context
	chains map[*relalg.View]*sharedChain
	res    *Result
	tests  map[string][]rowTest
	// sc is the scan in flight, reused from scan to scan.
	sc scanRun
	// keys holds the foreign keys of the rows a PK-side sink receives.
	keys []int64
}

// reduceRowSet answers one reducible request: the survivors are set straight
// into the answer's bitset.
func (e *Engine) reduceRowSet(ctx context.Context, rq RowSetRequest, chains map[*relalg.View]*sharedChain, res *Result) (*RowSet, error) {
	out := &RowSet{}
	if t, ok := e.db.Tables[rq.Table]; ok {
		out.bits = newBitset(t.Rows())
	}
	r := &reduction{e: e, ctx: ctx, chains: chains, res: res, tests: make(map[string][]rowTest)}
	if err := r.reduce(rq.View, rq.Table, out.add); err != nil {
		return nil, fmt.Errorf("engine: collect rows of %s: %w", rq.Table, err)
	}
	return out, nil
}

// reduce hands sink, window by ascending window, the rows of table that appear
// in v's output among the tuples satisfying every test pushed down so far.
// By induction on v: an output tuple of Join(L, R) is a tuple l of L and a
// tuple r of R whose foreign key names l's PK row, and the tests of L's
// tables and of R's tables constrain l and r independently — so "some
// satisfying tuple carries row t" splits into the restricted reduction of one
// side, which becomes one more test on the other side's join table, and the
// restricted reduction of that other side.
func (r *reduction) reduce(v *relalg.View, table string, sink func([]int32) error) error {
	e := r.e
	if v.Kind != relalg.JoinView {
		// A chain: its own filters ran in the table pass (or it is a bare
		// leaf); the tests apply to the survivors. Stats and metrics are
		// recorded per occurrence, as eval would.
		leaf, selects, _ := relalg.SelectChain(v)
		if leaf.Table != table {
			return fmt.Errorf("table %s not in view output [%s]", table, leaf.Table)
		}
		if len(selects) == 0 {
			t, err := e.db.Lookup(table)
			if err != nil {
				return err
			}
			e.observeChain(leaf, &chainScan{}, t.Rows(), r.res)
			return r.scan(fullRowSet(t.Rows()), t.Rows(), r.tests[table], sink)
		}
		c := r.chains[v]
		e.observeChain(leaf, &c.chainScan, c.tRows, r.res)
		return r.scan(c.set, c.tRows, r.tests[table], sink)
	}

	spec, left, right := v.Join, v.Inputs[0], v.Inputs[1]
	lt, rt := viewTables(left), viewTables(right)
	if !slices.Contains(lt, spec.PKTable) {
		return fmt.Errorf("join %s: PK table not in left relation %v", spec, lt)
	}
	if !slices.Contains(rt, spec.FKTable) {
		return fmt.Errorf("join %s: FK table not in right relation %v", spec, rt)
	}
	pkTab, err := e.db.Lookup(spec.PKTable)
	if err != nil {
		return fmt.Errorf("join %s: %w", spec, err)
	}
	fkTab, err := e.db.Lookup(spec.FKTable)
	if err != nil {
		return fmt.Errorf("join %s: %w", spec, err)
	}
	fkCol, err := e.columnData(fkTab, spec.FKCol)
	if err != nil {
		return fmt.Errorf("join %s: %w", spec, err)
	}
	nPK := pkTab.Rows()
	set := newBitset(nPK)
	switch {
	case slices.Contains(rt, table):
		// The PK rows the left side offers restrict the FK table's rows.
		err := r.reduce(left, spec.PKTable, func(rows []int32) error {
			for _, row := range rows {
				set.set(int(row))
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.tests[spec.FKTable] = append(r.tests[spec.FKTable], rowTest{fk: fkCol, n: nPK, set: set})
		return r.reduce(right, table, sink)
	case slices.Contains(lt, table):
		// The PK rows the right side references restrict the PK table's rows.
		err := r.reduce(right, spec.FKTable, func(rows []int32) error {
			r.keys = slices.Grow(r.keys[:0], len(rows))[:len(rows)]
			fkCol.Gather(r.keys, rows)
			for _, fk := range r.keys {
				if fk >= 1 && fk <= int64(nPK) {
					set.set(int(fk - 1))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.tests[spec.PKTable] = append(r.tests[spec.PKTable], rowTest{set: set})
		return r.reduce(left, table, sink)
	}
	return fmt.Errorf("table %s not in view output %v", table, append(lt, rt...))
}

// scan streams src, a set over a table of tRows rows, through tests into sink
// one window of the table at a time: the windows of a table pass, items of
// the same parallel.OrderedCtx pool at stage WindowStage, so a failure names
// the window a pass would. Up to the engine's width workers stage a window's
// rows of src into its slot and filter them there through the tests, and
// sink takes them in window order on the calling goroutine. An empty source
// has no rows to offer and is not scanned.
func (r *reduction) scan(src *RowSet, tRows int, tests []rowTest, sink func([]int32) error) error {
	if src.Len() == 0 {
		return nil
	}
	e := r.e
	effW := max(1, min(e.win.rows, tRows))
	n := (tRows + effW - 1) / effW
	sc := &r.sc
	workers := max(1, min(e.width, n))
	*sc = scanRun{src: src.bits, effW: effW, tRows: tRows, tests: tests, sink: sink, slots: e.win.slotsFor(workers)}
	return parallel.OrderedCtx(r.ctx, WindowStage, workers, n, sc.run, sc.commit)
}

// scanRun is one scan's pass over its source's windows.
type scanRun struct {
	src         bitset
	effW, tRows int
	tests       []rowTest
	sink        func([]int32) error
	slots       []*winSlot
}

// run stages window wi's rows of the source into its slot and filters them
// there through the tests.
func (sc *scanRun) run(_, slot, wi int) error {
	out := sc.slots[slot]
	lo := wi * sc.effW
	hi := min(lo+sc.effW, sc.tRows)
	rows := sc.src.appendRange(slices.Grow(out.surv[:0], hi-lo), lo, hi)
	for _, t := range sc.tests {
		if rows = t.filter(rows, rows); len(rows) == 0 {
			break
		}
	}
	out.surv = rows
	return nil
}

func (sc *scanRun) commit(slot, wi int) error {
	rows := sc.slots[slot].surv
	if len(rows) == 0 {
		return nil
	}
	if err := sc.sink(rows); err != nil {
		return fault.Wrap(WindowStage, wi, err)
	}
	return nil
}
