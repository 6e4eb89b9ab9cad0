package engine

// Semi-join reduction: how CollectRowSetsCtx answers a join-shaped request
// without building the join. The key generator only ever asks which rows of
// one table appear in a view's output. For a view made of selection chains
// over leaves and equi-joins, no base table twice, that set is the table's
// semi-join reduction: the join tree is acyclic, so a row survives iff it
// passes its own chain and, across every join on the way, references (or is
// referenced by) a surviving row of the other side. The restrictions travel
// down the tree as row tests — a bitset over a PK domain each — and the
// answer is the requested table's chain rows, already ascending and
// distinct, filtered by the tests that reached it. No Relation, no CSR
// index, no output tuple is materialized. See DESIGN.md §7.

import (
	"fmt"
	"slices"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/relalg"
)

// reducible reports whether every row set of v is a semi-join reduction: v is
// built from selection chains over leaves and equi-joins only, each base
// table once. Anything else — an outer, semi or anti join, a selection over a
// join output, a projection, a table under both inputs of a join — has to be
// evaluated.
func reducible(v *relalg.View) bool {
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
		return v.Kind == relalg.JoinView && v.Join.Type == relalg.EquiJoin &&
			len(v.Inputs) == 2 && walk(v.Inputs[0]) && walk(v.Inputs[1])
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
	fk  []int64
	n   int64
	set bitset
}

// filter writes the rows of src that pass into dst and returns them; dst
// needs len(src) room and may be src itself. NULL, < 1 and > n foreign keys
// match nothing, exactly join's probeBucket rule.
func (t rowTest) filter(dst, src []int32) []int32 {
	k := 0
	if t.fk == nil {
		for _, r := range src {
			if t.set.test(int(r)) {
				dst[k] = r
				k++
			}
		}
		return dst[:k]
	}
	for _, r := range src {
		if fk := t.fk[r]; fk >= 1 && fk <= t.n && t.set.test(int(fk-1)) {
			dst[k] = r
			k++
		}
	}
	return dst[:k]
}

// reduction is the state of one request's reduction: the chains the table
// passes of the call evaluated, and the row tests pushed down so far, by the
// table they restrict (each table occurs once, so each test has one taker).
type reduction struct {
	e      *Engine
	chains map[*relalg.View]*sharedChain
	res    *Result
	tests  map[string][]rowTest
	// sc is the scan in flight, reused from scan to scan.
	sc scanRun
}

// reduceRowSet answers one reducible request. The survivors accumulate in the
// engine's staging buffer — spilling past the engine's threshold like any
// other row set — and are sealed exact-size.
func (e *Engine) reduceRowSet(rq RowSetRequest, chains map[*relalg.View]*sharedChain, res *Result) (*RowSet, error) {
	win := e.win
	acc := &rowAccum{win: win, limit: win.spillAt, staged: true}
	if t, ok := e.db.Tables[rq.Table]; ok {
		acc.mem = win.stageFor(t.Rows())
	}
	r := &reduction{e: e, chains: chains, res: res, tests: make(map[string][]rowTest)}
	if err := r.reduce(rq.View, rq.Table, acc.add); err != nil {
		acc.abort()
		return nil, fmt.Errorf("engine: collect rows of %s: %w", rq.Table, err)
	}
	return acc.finish()
}

// stageFor returns the staging buffer, emptied, with room for a row set of at
// most n rows — or for as much of one as stays in memory before it spills.
func (w *windowState) stageFor(n int) []int32 {
	if w.spillAt >= 0 {
		n = min(n, max(w.spillAt, spillFlushRows)+w.rows)
	}
	if cap(w.stage) < n {
		w.stage = make([]int32, n)
	}
	return w.stage[:0]
}

// reduce hands sink, block by ascending block, the rows of table that appear
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
			return r.scan(&RowSet{n: t.Rows(), dense: true}, r.tests[table], sink)
		}
		c := r.chains[v]
		e.observeChain(leaf, &c.chainScan, c.tRows, r.res)
		err := r.scan(c.inner, r.tests[table], sink)
		if c.innerRefs--; c.innerRefs == 0 {
			c.inner.Release()
		}
		return err
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
	nPK := int64(pkTab.Rows())
	set := newBitset(int(nPK))
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
			for _, row := range rows {
				if fk := fkCol[row]; fk >= 1 && fk <= nPK {
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

// scan streams src through tests into sink a window's worth of candidate rows
// at a time. Each block is one gated, panic-contained window: wi counts the
// blocks, which over a bare leaf are exactly the table's windows. Blocks are
// gated and claimed sequentially (a spilled source is read from its file
// there), staged and filtered in rounds of up to the engine's width — each
// worker into its own buffers — and handed to sink in order.
func (r *reduction) scan(src *RowSet, tests []rowTest, sink func([]int32) error) error {
	e := r.e
	sc := &r.sc
	*sc = scanRun{r: r, rd: src.reader(e.win.rows), tests: tests, sink: sink}
	defer sc.rd.close()
	n := sc.rd.blocks()
	if n == 0 {
		return nil
	}
	sc.ws = e.win.workers(max(1, min(e.width, n)), sc.rd.size)
	return rounds(n, len(sc.ws), sc)
}

// scanRun is one scan's pass over its source's blocks.
type scanRun struct {
	r     *reduction
	rd    rowReader
	tests []rowTest
	sink  func([]int32) error
	ws    []*winScratch
}

func (sc *scanRun) load(k, wi int) (err error) {
	if err := sc.r.e.win.gate(wi); err != nil {
		return err
	}
	s := sc.ws[k]
	s.blk, err = sc.rd.next(s.rowBuf)
	return err
}

// run stages worker k's block and filters it through the tests, leaving the
// survivors in its rows.
func (sc *scanRun) run(k, wi int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.Recovered(WindowStage, wi, rec)
		}
	}()
	s, win := sc.ws[k], sc.r.e.win
	s.rows = s.blk.stage(s.rowBuf)
	win.m.windows.Inc()
	for _, t := range sc.tests {
		if s.rows = t.filter(s.outBuf, s.rows); len(s.rows) == 0 {
			break
		}
	}
	return nil
}

func (sc *scanRun) commit(k, wi int) error {
	rows := sc.ws[k].rows
	if len(rows) == 0 {
		return nil
	}
	if err := sc.sink(rows); err != nil {
		return fault.Wrap(WindowStage, wi, err)
	}
	return nil
}
