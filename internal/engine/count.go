package engine

// Counting: how Count answers a template without building a join. Annotation
// reads every operator's Card and every join's JCC/JDC off the original
// database, never an output tuple. For a tree whose join core is reducible
// (reduce.go: selection chains over leaves and equi-joins, every base table
// once) those numbers follow from per-row multiplicities — the counting form
// of Yannakakis' semi-join algorithm (VLDB 1981). A subtree hands its parent
// join the number of its output tuples carrying each row of the table that
// join reads; Join(L, R) pairs L's counts per PK row, m_L(p), with R's per
// FK row, summed per referenced PK row into c_R(p):
//
//	Card = JCC = Σ_p m_L(p)·c_R(p)      JDC = #{p : m_L(p) > 0 ∧ c_R(p) > 0}
//
// Projections and aggregates above the core read the rows with a nonzero
// count. No Relation, no CSR index and no output tuple is built; the
// selections run in one table pass per chain. A CountMemo carries what was
// counted from one tree to the next where trees repeat subtrees. See
// DESIGN.md §7.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Count returns what Execute returns — every view's Stats — for templates
// whose aggregates and projections sit over a reducible core, where every
// table a projection, a group-by or a join names lies in the part of the tree
// it reads, and whose grouped aggregates' output tuples are determined by the
// rows of one table (every grouped table is reached from it along the core's
// foreign keys: the fact table of a star or snowflake). Every other template —
// outer, semi and anti joins, MultiView, a selection over a join output — is
// evaluated by Execute, counted in engine_count_materialized_total.
//
// A non-nil memo carries counted subtrees between calls: Count takes from it
// what an earlier call counted for an equal subtree and leaves what it counts
// for later ones. Subtrees are equal when they have the same shape over the
// same parameter objects, so a memo serves trees that share parameters — a
// template and the trees of its rewritten forest (rewrite.CloneViewShared),
// which repeat the template's subtrees. A memo holds for one engine, one orig
// flag and parameters that do not change while it is in use.
func (e *Engine) Count(q *relalg.AQT, orig bool, memo *CountMemo) (*Result, error) {
	p := e.countPlan(q.Root)
	if p == nil {
		e.m.countMaterialized.Inc()
		return e.Execute(q, orig)
	}
	if memo != nil && memo.subtrees == nil {
		memo.subtrees = make(map[string]*memoEntry)
	}
	e.m.execs.Inc()
	res := &Result{Stats: make(map[*relalg.View]Stats)}
	c := &counter{e: e, ctx: e.poolCtx(context.TODO()), orig: orig, res: res, memo: memo,
		chains: make(map[*relalg.View]mult), keys: make(map[*relalg.View]string)}
	if err := p.run(c); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
	}
	return res, nil
}

// CountMemo is what Count remembers between calls: per subtree, its views'
// Stats and its output counted per row of the tables asked for. The zero
// value is ready to use.
type CountMemo struct {
	subtrees map[string]*memoEntry
}

type memoEntry struct {
	stats []Stats // the subtree's views, in walk order
	rows  map[string]mult
}

// countPlan is a template Count answers: aggregate and projection wrappers,
// bottom-up, over a reducible core.
type countPlan struct {
	e        *Engine
	wrappers []*relalg.View
	core     *relalg.View
	// keys holds, for every grouped aggregate, the table whose rows determine
	// its output tuples and, per grouping column, the joins from that table to
	// the column's.
	keys map[*relalg.View]groupPlan
}

type groupPlan struct {
	table string
	paths [][]*relalg.JoinSpec
}

// countPlan returns the plan for root, or nil if Count must evaluate it.
func (e *Engine) countPlan(root *relalg.View) *countPlan {
	p := &countPlan{e: e, keys: make(map[*relalg.View]groupPlan)}
	v := root
	for (v.Kind == relalg.AggView || v.Kind == relalg.ProjectView) && len(v.Inputs) == 1 {
		p.wrappers = append(p.wrappers, v)
		v = v.Inputs[0]
	}
	slices.Reverse(p.wrappers)
	if !reducible(v) {
		return nil
	}
	p.core = v
	tables := viewTables(v)
	for _, t := range tables {
		if _, ok := e.db.Tables[t]; !ok {
			return nil
		}
	}
	var joins []*relalg.JoinSpec
	ok := true
	v.Walk(func(n *relalg.View) {
		if n.Kind == relalg.JoinView {
			ok = ok && slices.Contains(viewTables(n.Inputs[0]), n.Join.PKTable) &&
				slices.Contains(viewTables(n.Inputs[1]), n.Join.FKTable)
			joins = append(joins, n.Join)
		}
	})
	if !ok {
		return nil
	}
	// The table a grouped aggregate is keyed by: the core's exit table (the
	// FK table of its top join, where a star's fact table sits) if it
	// reaches every grouped table, else the first table that does.
	candidates := tables
	if v.Kind == relalg.JoinView {
		candidates = append([]string{v.Join.FKTable}, tables...)
	}
	for _, w := range p.wrappers {
		switch {
		case w.Kind == relalg.ProjectView && !slices.Contains(tables, w.ProjTable):
			return nil
		case w.Kind == relalg.AggView && len(w.GroupBy) > 0:
			g, found := e.planGroups(w.GroupBy, candidates, joins)
			if !found {
				return nil
			}
			p.keys[w] = g
		}
	}
	return p
}

// planGroups finds the first candidate table from which every grouping
// column's table is reached along foreign keys.
func (e *Engine) planGroups(groupBy, candidates []string, joins []*relalg.JoinSpec) (groupPlan, bool) {
next:
	for _, k := range candidates {
		reach := pathsFrom(k, joins)
		g := groupPlan{table: k}
		for _, col := range groupBy {
			path, ok := reach[e.owner[col]]
			if !ok {
				continue next
			}
			g.paths = append(g.paths, path)
		}
		return g, true
	}
	return groupPlan{}, false
}

// pathsFrom maps every table reached from table k along foreign keys — from a
// join's FK table to its PK table — to the joins on the way.
func pathsFrom(k string, joins []*relalg.JoinSpec) map[string][]*relalg.JoinSpec {
	paths := map[string][]*relalg.JoinSpec{k: nil}
	for grew := true; grew; {
		grew = false
		for _, j := range joins {
			path, from := paths[j.FKTable]
			if _, done := paths[j.PKTable]; from && !done {
				paths[j.PKTable] = append(slices.Clip(path), j)
				grew = true
			}
		}
	}
	return paths
}

// run counts the plan's tree: the core — whose views record their Stats on
// the first count — and the wrappers bottom-up.
func (p *countPlan) run(c *counter) error {
	res := c.res
	counts := make(map[string]mult)
	record := true
	rowsOf := func(table string) (mult, error) {
		m, ok := counts[table]
		if !ok {
			var err error
			if m, err = c.count(p.core, table, nil, record); err != nil {
				return mult{}, err
			}
			counts[table], record = m, false
		}
		return m, nil
	}
	first := ""
	if len(p.wrappers) > 0 {
		switch w := p.wrappers[0]; w.Kind {
		case relalg.ProjectView:
			first = w.ProjTable
		case relalg.AggView:
			first = p.keys[w].table
		}
	}
	if _, err := rowsOf(first); err != nil {
		return err
	}
	e := p.e
	card := res.Stats[p.core].Card
	for _, w := range p.wrappers {
		var n int64
		switch {
		case w.Kind == relalg.ProjectView:
			rows, err := rowsOf(w.ProjTable)
			if err != nil {
				return err
			}
			t, err := e.db.Lookup(w.ProjTable)
			if err != nil {
				return err
			}
			col, err := e.columnData(t, w.ProjCol)
			if err != nil {
				return err
			}
			n = e.distinctValues(col, rows.rows, e.domainBound(w.ProjTable, w.ProjCol))
		case len(w.GroupBy) == 0:
			if card > 0 {
				n = 1
			}
		default:
			g := p.keys[w]
			rows, err := rowsOf(g.table)
			if err != nil {
				return err
			}
			if n, err = c.groups(w.GroupBy, g.paths, rows.rows); err != nil {
				return fmt.Errorf("aggregate: %w", err)
			}
		}
		e.m.opRows[w.Kind].Observe(n)
		res.Stats[w] = Stats{Card: n, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
	}
	return nil
}

// mult is a subtree's output counted per row of one of its tables: rows
// ascending, cnt[i] > 0 the number of output tuples carrying rows[i] (cnt nil:
// every count is 1). A mult may be shared (a chain's survivors, a bare
// leaf's identity rows, the memo's entries) and is never written after it is
// built.
type mult struct {
	rows []int32
	cnt  []int64
}

func (m mult) at(i int) int64 {
	if m.cnt == nil {
		return 1
	}
	return m.cnt[i]
}

// multOut builds a mult of at most n rows in ascending row order, storing
// counts only once one differs from 1.
type multOut struct{ m mult }

func newMultOut(n int) multOut {
	return multOut{mult{rows: make([]int32, 0, n)}}
}

func (o *multOut) add(row int32, n int64) {
	if n != 1 && o.m.cnt == nil {
		o.m.cnt = make([]int64, len(o.m.rows), cap(o.m.rows))
		for i := range o.m.cnt {
			o.m.cnt[i] = 1
		}
	}
	o.m.rows = append(o.m.rows, row)
	if o.m.cnt != nil {
		o.m.cnt = append(o.m.cnt, n)
	}
}

// weight is a factor a join puts on every row of one of its tables while a
// count descends past it to a table deeper in one input: on the join's PK
// table row r weighs val[r] (fk nil), on its FK table val[fk(r)-1], and zero
// for a NULL or out-of-domain key.
type weight struct {
	table string
	fk    *storage.Column
	val   []int64
}

// scale multiplies n[i] by the weight of rows[i]; keys is scratch of
// len(rows) into which the rows' foreign keys are gathered.
func (w weight) scale(n []int64, rows []int32, keys []int64) {
	if w.fk == nil {
		for i, row := range rows {
			n[i] *= w.val[row]
		}
		return
	}
	w.fk.Gather(keys, rows)
	for i, k := range keys[:len(rows)] {
		if k >= 1 && k <= int64(len(w.val)) {
			n[i] *= w.val[k-1]
		} else {
			n[i] = 0
		}
	}
}

// counter is the state of one Count: every chain's survivors by the chain's
// top view, and every subtree's memo key.
type counter struct {
	e      *Engine
	ctx    context.Context // the table passes' pool context
	orig   bool
	res    *Result
	memo   *CountMemo
	chains map[*relalg.View]mult
	keys   map[*relalg.View]string
}

// scan runs a selection chain in one table pass (a bare leaf needs none) and,
// with record set, stores its views' Stats as eval would.
func (c *counter) scan(v *relalg.View, record bool) (mult, error) {
	e := c.e
	leaf, selects, _ := relalg.SelectChain(v)
	t, err := e.db.Lookup(leaf.Table)
	if err != nil {
		return mult{}, err
	}
	cs := &chainScan{selects: selects}
	out := mult{rows: e.identity(t.Rows())}
	if len(selects) > 0 {
		var rows []int32
		cs.emit = func(win []int32) error {
			rows = append(rows, win...)
			return nil
		}
		tm := e.m.opNS[relalg.SelectView].Start()
		if err := e.runWindows(c.ctx, t, []*chainScan{cs}, c.orig, 1); err != nil {
			return mult{}, err
		}
		tm.Stop()
		out = mult{rows: rows}
	}
	if record {
		e.observeChain(leaf, cs, t.Rows(), c.res)
	}
	return out, nil
}

// key encodes a subtree's shape, each parameter by its identity, so that
// equal keys count equally under the same parameter values.
func (c *counter) key(v *relalg.View) string {
	if k, ok := c.keys[v]; ok {
		return k
	}
	var b strings.Builder
	switch v.Kind {
	case relalg.LeafView:
		b.WriteString(v.Table)
	case relalg.SelectView:
		fmt.Fprintf(&b, "select %s", v.Pred)
		for _, p := range v.Pred.Params(nil) {
			fmt.Fprintf(&b, " %p", p)
		}
		fmt.Fprintf(&b, " (%s)", c.key(v.Inputs[0]))
	default:
		fmt.Fprintf(&b, "%s (%s) (%s)", v.Join, c.key(v.Inputs[0]), c.key(v.Inputs[1]))
	}
	c.keys[v] = b.String()
	return c.keys[v]
}

// count is countView through the memo: an unweighted count of a subtree the
// memo holds takes its Stats and, if the memo has it, its counted rows; one it
// does not hold is counted and remembered.
func (c *counter) count(v *relalg.View, table string, ws []weight, record bool) (mult, error) {
	if c.memo == nil || len(ws) > 0 {
		return c.countView(v, table, ws, record)
	}
	k := c.key(v)
	ent := c.memo.subtrees[k]
	if ent == nil {
		m, err := c.countView(v, table, nil, record)
		if err != nil || !record {
			return m, err
		}
		ent = &memoEntry{rows: map[string]mult{table: m}}
		v.Walk(func(n *relalg.View) { ent.stats = append(ent.stats, c.res.Stats[n]) })
		c.memo.subtrees[k] = ent
		return m, nil
	}
	if record {
		i := 0
		v.Walk(func(n *relalg.View) {
			c.res.Stats[n] = ent.stats[i]
			i++
		})
	}
	m, ok := ent.rows[table]
	if !ok && table != "" {
		var err error
		if m, err = c.countView(v, table, nil, false); err != nil {
			return mult{}, err
		}
		ent.rows[table] = m
	}
	return m, nil
}

// identity returns the rows [0, n) of a bare leaf, shared and read-only.
func (e *Engine) identity(n int) []int32 {
	if len(e.ident) < n {
		e.ident = make([]int32, n)
		for i := range e.ident {
			e.ident[i] = int32(i)
		}
	}
	return e.ident[:n:n]
}

// countView returns v's output counted per row of table ("" for none: only
// the Stats are wanted), every row of a table first scaled by the weights on
// it. With record set — only ever without weights — every view stores its
// Stats.
//
// By induction on v. At Join(L, R), with m_L over the PK table's rows and c
// over the FK table's, an output tuple is an L tuple and an R tuple whose
// foreign key names the L tuple's PK row: FK row f carries c(f)·m_L(fk(f))
// output tuples, PK row p carries m_L(p)·c_R(p). A table deeper in one input
// is counted by descending into that input again with the other side's
// counts as a weight on the join's table there: tests, like weights,
// restrict single tables, and L and R share none.
func (c *counter) countView(v *relalg.View, table string, ws []weight, record bool) (mult, error) {
	if v.Kind != relalg.JoinView {
		chain, ok := c.chains[v]
		if !ok {
			var err error
			if chain, err = c.scan(v, record); err != nil {
				return mult{}, err
			}
			c.chains[v] = chain
		}
		var mine []weight
		for _, w := range ws {
			if w.table == table {
				mine = append(mine, w)
			}
		}
		if len(mine) == 0 {
			return chain, nil
		}
		out := mult{rows: make([]int32, 0, len(chain.rows)), cnt: make([]int64, 0, len(chain.rows))}
		n, keys := c.e.block(0), c.e.block(1)
		for lo := 0; lo < len(chain.rows); lo += blockRows {
			rows := chain.rows[lo:min(lo+blockRows, len(chain.rows))]
			for i := range rows {
				n[i] = 1
			}
			for _, w := range mine {
				w.scale(n, rows, keys)
			}
			for i, row := range rows {
				if n[i] > 0 {
					out.rows = append(out.rows, row)
					out.cnt = append(out.cnt, n[i])
				}
			}
		}
		return out, nil
	}

	e := c.e
	spec, left, right := v.Join, v.Inputs[0], v.Inputs[1]
	pkTab, err := e.db.Lookup(spec.PKTable)
	if err != nil {
		return mult{}, fmt.Errorf("join %s: %w", spec, err)
	}
	fkTab, err := e.db.Lookup(spec.FKTable)
	if err != nil {
		return mult{}, fmt.Errorf("join %s: %w", spec, err)
	}
	fk, err := e.columnData(fkTab, spec.FKCol)
	if err != nil {
		return mult{}, fmt.Errorf("join %s: %w", spec, err)
	}
	nPK := pkTab.Rows()

	l, err := c.count(left, spec.PKTable, ws, record)
	if err != nil {
		return mult{}, err
	}
	// m_L: lSet marks the PK rows with a nonzero count, mL holds the counts
	// unless every one is 1.
	lSet := newBitset(nPK)
	var mL []int64
	if l.cnt != nil {
		mL = make([]int64, nPK)
	}
	for i, row := range l.rows {
		lSet.set(int(row))
		if mL != nil {
			mL[row] = l.cnt[i]
		}
	}
	r, err := c.count(right, spec.FKTable, ws, record)
	if err != nil {
		return mult{}, err
	}

	toFK := table == spec.FKTable
	inLeft := table == spec.PKTable || (table != "" && !toFK && slices.Contains(viewTables(left), table))
	p := &probe{r: r, lSet: lSet, mL: mL, nPK: nPK, toFK: toFK}
	if toFK {
		p.out = newMultOut(len(r.rows))
	}
	if inLeft {
		p.cR = make([]int64, nPK)
	}
	if record {
		p.matched = newBitset(nPK)
	}
	switch fk.Width() {
	case 1:
		probeFK(p, storage.Values[uint8](fk))
	case 2:
		probeFK(p, storage.Values[uint16](fk))
	case 4:
		probeFK(p, storage.Values[uint32](fk))
	default:
		probeFK(p, storage.Values[int64](fk))
	}
	card, out, cR, matched := p.card, p.out, p.cR, p.matched
	if record {
		e.m.opRows[relalg.JoinView].Observe(card)
		c.res.Stats[v] = Stats{Card: card, JCC: card, JDC: int64(matched.count())}
	}

	switch {
	case table == "":
		return mult{}, nil
	case toFK:
		return out.m, nil
	case table == spec.PKTable:
		out = newMultOut(len(l.rows))
		for i, row := range l.rows {
			if n := cR[row]; n > 0 {
				out.add(row, l.at(i)*n)
			}
		}
		return out.m, nil
	case inLeft:
		return c.count(left, table, append(slices.Clip(ws), weight{table: spec.PKTable, val: cR}), false)
	}
	if mL == nil {
		mL = make([]int64, nPK)
		for _, row := range l.rows {
			mL[row] = 1
		}
	}
	return c.count(right, table, append(slices.Clip(ws), weight{table: spec.FKTable, fk: fk, val: mL}), false)
}

// probe is one join's pass over its FK side in countView: the FK-side rows
// and counts r, the PK-side rows with a nonzero count (lSet) and their
// counts (mL, nil when all are 1), and what the pass produces — the join's
// cardinality, its matched PK rows (when recording), the output counted per
// FK row (toFK) and the FK-side count per PK row (cR, when wanted).
type probe struct {
	r       mult
	lSet    bitset
	mL      []int64
	nPK     int
	toFK    bool
	card    int64
	matched bitset
	out     multOut
	cR      []int64
}

// probeFK runs p over the foreign keys fk, a column stored as T.
func probeFK[T storage.Elem](p *probe, fk []T) {
	r, lSet, mL, cR, matched := p.r, p.lSet, p.mL, p.cR, p.matched
	nPK := uint64(p.nPK)
	var card int64
	for i, row := range r.rows {
		// NULL, < 1 and > nPK foreign keys match nothing: probeBucket's rule.
		k := int64(fk[row]) - 1
		if uint64(k) >= nPK || !lSet.test(int(k)) {
			continue
		}
		nR := int64(1)
		if r.cnt != nil {
			nR = r.cnt[i]
		}
		n := nR
		if mL != nil {
			n *= mL[k]
		}
		card += n
		if matched != nil {
			matched.set(int(k))
		}
		if p.toFK {
			p.out.add(row, n)
		}
		if cR != nil {
			cR[k] += nR
		}
	}
	p.card = card
}

// groups counts the distinct grouping keys over the rows of the aggregate's
// key table: each grouping column is read through the joins of its path from
// the row, and the values fold into a groupKey exactly as aggregate folds
// them, so a hash collision merges the same groups on both paths. The rows
// are read a block at a time: every foreign key on a path is gathered for
// the block's rows and turned into the next table's rows, then the grouping
// column for those.
func (c *counter) groups(groupBy []string, paths [][]*relalg.JoinSpec, rows []int32) (int64, error) {
	e := c.e
	type groupCol struct {
		fks  []*storage.Column
		vals *storage.Column
	}
	cols := make([]groupCol, len(groupBy))
	for gi, g := range groupBy {
		for _, j := range paths[gi] {
			t, err := e.db.Lookup(j.FKTable)
			if err != nil {
				return 0, err
			}
			fk, err := e.columnData(t, j.FKCol)
			if err != nil {
				return 0, err
			}
			cols[gi].fks = append(cols[gi].fks, fk)
		}
		t, err := e.db.Lookup(e.owner[g])
		if err != nil {
			return 0, err
		}
		vals, err := e.columnData(t, g)
		if err != nil {
			return 0, fmt.Errorf("aggregate by %s: %w", g, err)
		}
		cols[gi].vals = vals
	}
	keys := make(map[groupKey]struct{})
	next := make([]int32, blockRows)
	hop := e.block(len(cols))
	for lo := 0; lo < len(rows); lo += blockRows {
		blk := rows[lo:min(lo+blockRows, len(rows))]
		for gi, col := range cols {
			at := blk
			for _, fk := range col.fks {
				fk.Gather(hop, at)
				at = next[:len(blk)]
				for i, k := range hop[:len(blk)] {
					at[i] = int32(k - 1)
				}
			}
			col.vals.Gather(e.block(gi), at)
		}
		for i := range blk {
			k := groupKey{a: e.blocks[0][i]}
			for gi := 1; gi < len(cols); gi++ {
				k = k.fold(e.blocks[gi][i])
			}
			keys[k] = struct{}{}
		}
	}
	return int64(len(keys)), nil
}
