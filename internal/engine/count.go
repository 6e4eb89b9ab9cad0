package engine

// Counting: how Count answers a template without building a join. Annotation
// reads every operator's Card and every join's JCC/JDC off the original
// database, never an output tuple. For a tree whose join core is selection
// chains over leaves and PK-FK joins of any type, every base table once,
// those numbers follow from per-row multiplicities — the counting form of
// Yannakakis' semi-join algorithm (VLDB 1981). A subtree hands its parent
// join the number of its output tuples carrying each row of the table that
// join reads, and the number carrying a null pad there; Join(L, R) pairs L's
// counts per PK row, m_L(p), with R's per FK row, summed per referenced PK
// row into c_R(p):
//
//	JCC = Σ_p m_L(p)·c_R(p)      JDC = #{p : m_L(p) > 0 ∧ c_R(p) > 0}
//
// and the join's type says which parts its Card adds: the matched pairs
// (JCC), the left or right tuples without a partner, or those with one
// (joinParts). Projections and aggregates above the core read the rows with
// a nonzero count. No Relation, no CSR index and no output tuple is built;
// the selections run in one table pass per chain. A CountMemo carries what
// was counted from one tree to the next where trees repeat subtrees. See
// DESIGN.md §7.

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Count returns what Execute returns — every view's Stats — for templates
// whose aggregates and projections sit over a core of selection chains and
// joins of any type, every base table once, where every table a projection,
// a group-by or a join names lies in the part of the tree it reads, and
// whose grouped aggregates' output tuples are determined by the rows of one
// table (groupPlan), and for a MultiView of such trees. Every other template
// — a selection over a join output, a table twice, grouped tables no single
// table determines — is evaluated by Execute, counted in
// engine_count_materialized_total. The table passes run on ctx: a
// cancellation stops them at the next window.
//
// A non-nil memo carries counted subtrees between calls: Count takes from it
// what an earlier call counted for an equal subtree and leaves what it counts
// for later ones. Subtrees are equal when they have the same shape over the
// same parameter objects, so a memo serves trees that share parameters — a
// template and the trees of its rewritten forest (rewrite.CloneViewShared),
// which repeat the template's subtrees. A memo holds for one engine, one orig
// flag and parameters that do not change while it is in use.
func (e *Engine) Count(ctx context.Context, q *relalg.AQT, orig bool, memo *CountMemo) (*Result, error) {
	plans := e.countPlans(q.Root)
	if plans == nil {
		e.m.countMaterialized.Inc()
		return e.Execute(q, orig)
	}
	if memo != nil && memo.subtrees == nil {
		memo.subtrees = make(map[string]*memoEntry)
	}
	e.m.execs.Inc()
	res := &Result{Stats: make(map[*relalg.View]Stats)}
	c := &counter{e: e, ctx: e.poolCtx(ctx), orig: orig, res: res, memo: memo,
		chains: make(map[*relalg.View]mult), keys: make(map[*relalg.View]string),
		exist: make(map[*relalg.View]joinExist), probeSel: make([]int32, blockRows), probeKeys: make([]int64, blockRows)}
	for _, p := range plans {
		if err := p.run(c); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
		}
	}
	if q.Root.Kind == relalg.MultiView {
		// eval returns the last input's relation, which its aggregates and
		// projections pass through from the core.
		last := plans[len(plans)-1].core
		res.Stats[q.Root] = Stats{Card: res.Stats[last].Card, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
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

// joinParts is what a join type's output holds: the matched pairs (m), the
// left tuples without a partner (lu) or with one (ls), padded on the right,
// and the right tuples without a partner (ru) or with one (rs), padded on
// the left. A left tuple without a partner is one whose PK row no right
// tuple references, or whose PK table is itself a pad; a right tuple without
// one has a NULL or out-of-domain key, a pad, or a key no left tuple holds.
type joinParts struct{ m, lu, ls, ru, rs bool }

var partsOf = [...]joinParts{
	relalg.EquiJoin:       {m: true},
	relalg.LeftOuterJoin:  {m: true, lu: true},
	relalg.RightOuterJoin: {m: true, ru: true},
	relalg.FullOuterJoin:  {m: true, lu: true, ru: true},
	relalg.LeftSemiJoin:   {ls: true},
	relalg.RightSemiJoin:  {rs: true},
	relalg.LeftAntiJoin:   {lu: true},
	relalg.RightAntiJoin:  {ru: true},
}

// padsLeft and padsRight report whether some output tuple has every table of
// that input as a null pad; keepsLeft and keepsRight whether some has rows
// there.
func (j joinParts) padsLeft() bool   { return j.ru || j.rs }
func (j joinParts) padsRight() bool  { return j.lu || j.ls }
func (j joinParts) keepsLeft() bool  { return j.m || j.lu || j.ls }
func (j joinParts) keepsRight() bool { return j.m || j.ru || j.rs }

// if1 is n where b holds, else 0.
func if1(b bool, n int64) int64 {
	if b {
		return n
	}
	return 0
}

// countPlan is a tree Count answers: aggregate and projection wrappers,
// bottom-up, over a core of selection chains and joins.
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
	paths [][]*relalg.View
	// null marks the grouping columns of tables a semi or anti join above
	// them drops: every output tuple has them as pads, so they read NULL.
	null []bool
}

// countPlans returns the plans of root's trees — the inputs of a MultiView,
// else root itself — or nil if Count must evaluate it.
func (e *Engine) countPlans(root *relalg.View) []*countPlan {
	trees := []*relalg.View{root}
	if root.Kind == relalg.MultiView {
		trees = root.Inputs
	}
	if len(trees) == 0 {
		return nil
	}
	plans := make([]*countPlan, len(trees))
	for i, v := range trees {
		if plans[i] = e.countPlan(v); plans[i] == nil {
			return nil
		}
	}
	return plans
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
	if !joinTree(v, false) {
		return nil
	}
	p.core = v
	tables := viewTables(v)
	for _, t := range tables {
		if _, ok := e.db.Tables[t]; !ok {
			return nil
		}
	}
	var joins []*relalg.View
	ok := true
	v.Walk(func(n *relalg.View) {
		if n.Kind == relalg.JoinView {
			ok = ok && slices.Contains(viewTables(n.Inputs[0]), n.Join.PKTable) &&
				slices.Contains(viewTables(n.Inputs[1]), n.Join.FKTable)
			joins = append(joins, n)
		}
	})
	if !ok {
		return nil
	}
	// The table a grouped aggregate is keyed by: the core's exit table (the
	// FK table of its top join, where a star's fact table sits) if it
	// determines every grouped table, else the first table that does.
	candidates := tables
	if v.Kind == relalg.JoinView {
		candidates = append([]string{v.Join.FKTable}, tables...)
	}
	for _, w := range p.wrappers {
		switch {
		case w.Kind == relalg.ProjectView && !slices.Contains(tables, w.ProjTable):
			return nil
		case w.Kind == relalg.AggView && len(w.GroupBy) > 0:
			g, found := e.planGroups(v, w.GroupBy, candidates, joins)
			if !found {
				return nil
			}
			p.keys[w] = g
		}
	}
	return p
}

// planGroups finds the first candidate table k that determines the grouping
// columns of every output tuple of core: each grouping column's table is
// reached from k along foreign keys, and where k is a null pad, so is every
// grouped table (padsApart). Tables no output tuple holds a row of group as
// NULL and need no path.
func (e *Engine) planGroups(core *relalg.View, groupBy, candidates []string, joins []*relalg.View) (groupPlan, bool) {
	var dropped, grouped []string
	core.Walk(func(v *relalg.View) {
		if v.Kind == relalg.JoinView {
			jp := partsOf[v.Join.Type]
			if !jp.keepsLeft() {
				dropped = append(dropped, viewTables(v.Inputs[0])...)
			}
			if !jp.keepsRight() {
				dropped = append(dropped, viewTables(v.Inputs[1])...)
			}
		}
	})
	null := make([]bool, len(groupBy))
	for i, col := range groupBy {
		if null[i] = slices.Contains(dropped, e.owner[col]); !null[i] {
			grouped = append(grouped, e.owner[col])
		}
	}
next:
	for _, k := range candidates {
		if padsApart(core, k, grouped) {
			continue
		}
		reach := pathsFrom(k, joins)
		g := groupPlan{table: k, paths: make([][]*relalg.View, len(groupBy)), null: null}
		for i, col := range groupBy {
			if null[i] {
				continue
			}
			path, ok := reach[e.owner[col]]
			if !ok {
				continue next
			}
			g.paths[i] = path
		}
		return g, true
	}
	return groupPlan{}, false
}

// padsApart reports whether a join above table k in core pads k's input in
// some output tuple while a grouped table lies outside that input: such a
// tuple's grouping values are not all NULL and not determined by k's row.
func padsApart(core *relalg.View, k string, grouped []string) bool {
	for v := core; v.Kind == relalg.JoinView; {
		jp := partsOf[v.Join.Type]
		side, pads := v.Inputs[1], jp.padsRight()
		if slices.Contains(viewTables(v.Inputs[0]), k) {
			side, pads = v.Inputs[0], jp.padsLeft()
		}
		if pads {
			tables := viewTables(side)
			for _, t := range grouped {
				if !slices.Contains(tables, t) {
					return true
				}
			}
		}
		v = side
	}
	return false
}

// pathsFrom maps every table reached from table k along foreign keys — from a
// join's FK table to its PK table — to the joins on the way.
func pathsFrom(k string, joins []*relalg.View) map[string][]*relalg.View {
	paths := map[string][]*relalg.View{k: nil}
	for grew := true; grew; {
		grew = false
		for _, j := range joins {
			path, from := paths[j.Join.FKTable]
			if _, done := paths[j.Join.PKTable]; from && !done {
				paths[j.Join.PKTable] = append(slices.Clip(path), j)
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
			if n, err = c.groups(w.GroupBy, g, rows); err != nil {
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
// every count is 1), and null the number in which the table is a null pad
// (or which the subtree does not hold at all). A mult may be shared (a
// chain's survivors, a bare leaf's identity rows, the memo's entries) and is
// never written after it is built.
type mult struct {
	rows []int32
	cnt  []int64
	null int64
}

func (m mult) at(i int) int64 {
	if m.cnt == nil {
		return 1
	}
	return m.cnt[i]
}

// total is the number of output tuples.
func (m mult) total() int64 {
	n := m.null
	if m.cnt == nil {
		return n + int64(len(m.rows))
	}
	for _, k := range m.cnt {
		n += k
	}
	return n
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

// weight is a factor a join puts on every tuple of one of its inputs while a
// count descends past it to a table deeper in that input: by the tuple's row
// of the join's PK table r, val[r] (fk nil), or of its FK table r,
// val[fk(r)-1]; pad where that table is a null pad, or where the foreign key
// is NULL or out of domain.
type weight struct {
	table string
	fk    *storage.Column
	val   []int64
	pad   int64
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
			n[i] *= w.pad
		}
	}
}

// weigh returns m with every count multiplied by the weights on its table
// and its null count by their pads, dropping the rows whose count becomes 0.
func (c *counter) weigh(m mult, ws []weight) mult {
	out := mult{rows: make([]int32, 0, len(m.rows)), cnt: make([]int64, 0, len(m.rows)), null: m.null}
	for _, w := range ws {
		out.null *= w.pad
	}
	n, keys := c.e.block(0), c.e.block(1)
	for lo := 0; lo < len(m.rows); lo += blockRows {
		rows := m.rows[lo:min(lo+blockRows, len(m.rows))]
		for i := range rows {
			n[i] = m.at(lo + i)
		}
		for _, w := range ws {
			w.scale(n, rows, keys)
		}
		for i, row := range rows {
			if n[i] != 0 {
				out.rows = append(out.rows, row)
				out.cnt = append(out.cnt, n[i])
			}
		}
	}
	return out
}

// joinExist is what a join's unweighted count leaves for the passes that
// weigh it: the PK rows some left tuple carries (l) and the PK rows some
// right tuple's foreign key names (r). Whether a tuple has a partner depends
// on these alone, whatever weight the tuples carry.
type joinExist struct{ l, r bitset }

// existence returns join v's existence sets, counting v unweighted first if
// no count of it has yet.
func (c *counter) existence(v *relalg.View) (joinExist, error) {
	if ex, ok := c.exist[v]; ok {
		return ex, nil
	}
	if _, err := c.countView(v, "", nil, false); err != nil {
		return joinExist{}, err
	}
	return c.exist[v], nil
}

// counter is the state of one Count: every chain's survivors by the chain's
// top view, every subtree's memo key and every join's existence sets.
type counter struct {
	e      *Engine
	ctx    context.Context // the table passes' pool context
	orig   bool
	res    *Result
	memo   *CountMemo
	chains map[*relalg.View]mult
	keys   map[*relalg.View]string
	exist  map[*relalg.View]joinExist
	// probeSel and probeKeys are the probes' scratch, blockRows long.
	probeSel  []int32
	probeKeys []int64
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
// the Stats are wanted), every tuple weighted by ws — which name tables of v
// only. With record set — only ever without weights — every view stores its
// Stats.
//
// By induction on v. At Join(L, R), with m_L over the PK table's rows and c
// over the FK table's, a matched output tuple is an L tuple and an R tuple
// whose foreign key names the L tuple's PK row: FK row f carries
// c(f)·m_L(fk(f)) of them, PK row p m_L(p)·c_R(p); the tuples without a
// partner, or kept for having one, add to that by the join's type. A table
// deeper in one input is counted by descending into that input again with
// the other side's counts as a weight on the join's table there: tests, like
// weights, restrict single tables, and L and R share none.
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
		if len(ws) > 0 {
			return c.weigh(chain, ws), nil
		}
		return chain, nil
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
	j := &joinCount{v: v, fk: fk, nPK: pkTab.Rows(), padL: 1, padR: 1}
	for _, w := range ws {
		if slices.Contains(viewTables(left), w.table) {
			j.wsL, j.padL = append(j.wsL, w), j.padL*w.pad
		} else {
			j.wsR, j.padR = append(j.wsR, w), j.padR*w.pad
		}
	}
	if j.l, err = c.count(left, spec.PKTable, j.wsL, record); err != nil {
		return mult{}, err
	}
	if j.r, err = c.count(right, spec.FKTable, j.wsR, record); err != nil {
		return mult{}, err
	}
	inLeft := table == spec.PKTable || slices.Contains(viewTables(left), table)
	if spec.Type == relalg.EquiJoin {
		return c.equiJoin(j, table, inLeft, record)
	}
	return c.otherJoin(j, table, inLeft, record)
}

// joinCount is one join's count in countView: the view, its foreign keys,
// the PK table's size, the weights on each input and the product of their
// pads, and the inputs counted per PK row (l) and per FK row (r).
type joinCount struct {
	v          *relalg.View
	fk         *storage.Column
	nPK        int
	wsL, wsR   []weight
	padL, padR int64
	l, r       mult
}

// equiJoin finishes countView for an inner join: one pass over the FK side's
// rows yields the cardinality, the matched PK rows and whatever table asks
// for. No output tuple has a pad here that its inputs did not.
func (c *counter) equiJoin(j *joinCount, table string, inLeft, record bool) (mult, error) {
	e := c.e
	v, spec, l, nPK := j.v, j.v.Join, j.l, j.nPK
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
	toFK := table == spec.FKTable
	p := &probe{r: j.r, lSet: lSet, mL: mL, nPK: nPK, toFK: toFK, sel: c.probeSel, keys: c.probeKeys}
	if toFK {
		p.out = newMultOut(len(j.r.rows))
	}
	if inLeft {
		p.cR = make([]int64, nPK)
	}
	if record {
		p.matched = newBitset(nPK)
	}
	switch j.fk.Width() {
	case 1:
		probeFK(p, storage.Values[uint8](j.fk))
	case 2:
		probeFK(p, storage.Values[uint16](j.fk))
	case 4:
		probeFK(p, storage.Values[uint32](j.fk))
	default:
		probeFK(p, storage.Values[int64](j.fk))
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
		return c.count(v.Inputs[0], table, append(slices.Clip(j.wsL), weight{table: spec.PKTable, val: cR}), false)
	}
	if mL == nil {
		mL = make([]int64, nPK)
		for _, row := range l.rows {
			mL[row] = 1
		}
	}
	return c.count(v.Inputs[1], table, append(slices.Clip(j.wsR), weight{table: spec.FKTable, fk: j.fk, val: mL}), false)
}

// otherJoin finishes countView for an outer, semi or anti join. With m_L
// and c_R dense over the PK rows, and the existence sets of the join's
// unweighted count, every part of the output is a sum over the PK rows:
//
//	matched  Σ_p m_L(p)·c_R(p)
//	ls       Σ_{p named on the right} m_L(p)      lu  |L| − ls
//	rs       Σ_{p held on the left} c_R(p)        ru  |R| − rs
//
// times the pads of the weights on the other input, which a padded tuple
// reads there.
func (c *counter) otherJoin(j *joinCount, table string, inLeft, record bool) (mult, error) {
	v, spec, l, r, nPK := j.v, j.v.Join, j.l, j.r, j.nPK
	jp := partsOf[spec.Type]
	mL := make([]int64, nPK)
	for i, row := range l.rows {
		mL[row] = l.at(i)
	}
	cR := make([]int64, nPK)
	// An unweighted count finds the existence sets; a weighted one reads
	// them.
	var ex joinExist
	var named bitset
	if len(j.wsL)+len(j.wsR) == 0 {
		ex = joinExist{l: newBitset(nPK), r: newBitset(nPK)}
		for _, row := range l.rows {
			ex.l.set(int(row))
		}
		named = ex.r
	} else {
		var err error
		if ex, err = c.existence(v); err != nil {
			return mult{}, err
		}
	}
	switch j.fk.Width() {
	case 1:
		sumByKey(cR, named, r, storage.Values[uint8](j.fk))
	case 2:
		sumByKey(cR, named, r, storage.Values[uint16](j.fk))
	case 4:
		sumByKey(cR, named, r, storage.Values[uint32](j.fk))
	default:
		sumByKey(cR, named, r, storage.Values[int64](j.fk))
	}
	if named != nil {
		c.exist[v] = ex
	}
	var matched, ls, rs int64
	for p := range nPK {
		matched += mL[p] * cR[p]
		if ex.r.test(p) {
			ls += mL[p]
		}
		if ex.l.test(p) {
			rs += cR[p]
		}
	}
	lu, ru := j.padR*(l.total()-ls), j.padL*(r.total()-rs)
	ls, rs = j.padR*ls, j.padL*rs
	card := if1(jp.m, matched) + if1(jp.lu, lu) + if1(jp.ls, ls) + if1(jp.ru, ru) + if1(jp.rs, rs)
	if record {
		jdc := 0
		for i, w := range ex.l {
			jdc += bits.OnesCount64(w & ex.r[i])
		}
		c.e.m.opRows[relalg.JoinView].Observe(card)
		c.res.Stats[v] = Stats{Card: card, JCC: matched, JDC: int64(jdc)}
	}

	switch {
	case inLeft && jp.keepsLeft():
		// An L tuple with PK row p appears once per partner (m), or once
		// padded if it has none (lu) or some (ls).
		w := weight{table: spec.PKTable, val: make([]int64, nPK), pad: if1(jp.lu, j.padR)}
		for p := range nPK {
			w.val[p] = if1(jp.m, cR[p])
			if ex.r.test(p) {
				w.val[p] += if1(jp.ls, j.padR)
			} else {
				w.val[p] += if1(jp.lu, j.padR)
			}
		}
		out, err := c.weighed(v.Inputs[0], table, j.l, j.wsL, w)
		out.null += if1(jp.ru, ru) + if1(jp.rs, rs)
		return out, err
	case table != "" && !inLeft && jp.keepsRight():
		// An R tuple whose key names p appears once per partner (m), or
		// once padded if p has some (rs); one without a partner, once
		// padded (ru).
		w := weight{table: spec.FKTable, fk: j.fk, val: make([]int64, nPK), pad: if1(jp.ru, j.padL)}
		for p := range nPK {
			if ex.l.test(p) {
				w.val[p] = if1(jp.m, mL[p]) + if1(jp.rs, j.padL)
			} else {
				w.val[p] = w.pad
			}
		}
		out, err := c.weighed(v.Inputs[1], table, j.r, j.wsR, w)
		out.null += if1(jp.lu, lu) + if1(jp.ls, ls)
		return out, err
	}
	return mult{null: card}, nil
}

// weighed counts input in per row of table under its weights ws and one
// more, w, on the join's own table there, whose count m is already at hand.
func (c *counter) weighed(in *relalg.View, table string, m mult, ws []weight, w weight) (mult, error) {
	if table == w.table {
		return c.weigh(m, []weight{w}), nil
	}
	return c.count(in, table, append(slices.Clip(ws), w), false)
}

// sumByKey adds every FK-side row's count to cR at the PK row its foreign key
// names, and marks that row in named (when non-nil). NULL, < 1 and > nPK
// keys name nothing: probeBucket's rule.
func sumByKey[T storage.Elem](cR []int64, named bitset, r mult, fk []T) {
	nPK := uint64(len(cR))
	for i, row := range r.rows {
		k := int64(fk[row]) - 1
		if uint64(k) >= nPK {
			continue
		}
		cR[k] += r.at(i)
		if named != nil {
			named.set(int(k))
		}
	}
}

// probe is one inner join's pass over its FK side in equiJoin: the FK-side
// rows and counts r, the PK-side rows with a nonzero count (lSet) and their
// counts (mL, nil when all are 1), scratch of blockRows (sel, keys) and what
// the pass produces — the join's cardinality, its matched PK rows (when
// recording), the output counted per FK row (toFK) and the FK-side count per
// PK row (cR, when wanted).
type probe struct {
	r       mult
	lSet    bitset
	mL      []int64
	nPK     int
	toFK    bool
	sel     []int32
	keys    []int64
	card    int64
	matched bitset
	out     multOut
	cR      []int64
}

// probeFK runs p over the foreign keys fk, a column stored as T, a block of
// FK-side rows at a time. keepFK keeps the block's rows whose key names a row
// of lSet — straight into the output where the output wants them — and only
// those survivors are read again, their keys folded into cR and matched in
// loops that test nothing per row. NULL, < 1 and > nPK foreign keys match
// nothing: probeBucket's rule. Where either side carries counts, a
// survivor's output count is its own times its PK row's: the block's keys are
// gathered first and keepFK keeps their positions, which index the counts.
func probeFK[T storage.Elem](p *probe, fk []T) {
	r, mL, cR, matched, nPK := p.r, p.mL, p.cR, p.matched, p.nPK
	var card int64
	for lo := 0; lo < len(r.rows); lo += blockRows {
		rows := r.rows[lo:min(lo+blockRows, len(r.rows))]
		if r.cnt != nil || mL != nil {
			keys := p.keys[:len(rows)]
			for j, row := range rows {
				keys[j] = int64(fk[row])
			}
			for _, j := range keepFK(p.sel, blockIdent[:len(rows)], keys, p.lSet, nPK) {
				k, nR := keys[j]-1, r.at(lo+int(j))
				n := nR
				if mL != nil {
					n *= mL[k]
				}
				card += n
				if p.toFK {
					p.out.add(rows[j], n)
				}
				if cR != nil {
					cR[k] += nR
				}
				if matched != nil {
					matched.set(int(k))
				}
			}
			continue
		}
		var surv []int32
		if p.toFK {
			out := slices.Grow(p.out.m.rows, len(rows))
			surv = keepFK(out[len(out):len(out)+len(rows)], rows, fk, p.lSet, nPK)
			p.out.m.rows = out[:len(out)+len(surv)]
		} else {
			surv = keepFK(p.sel, rows, fk, p.lSet, nPK)
		}
		card += int64(len(surv))
		if cR != nil {
			for _, row := range surv {
				cR[int(fk[row])-1]++
			}
		}
		if matched != nil {
			for _, row := range surv {
				matched.set(int(fk[row]) - 1)
			}
		}
	}
	p.card = card
}

// blockIdent holds the positions 0..blockRows-1 of a block, read-only.
var blockIdent = func() []int32 {
	ident := make([]int32, blockRows)
	for i := range ident {
		ident[i] = int32(i)
	}
	return ident
}()

// groups counts the distinct grouping keys of the output tuples, given the
// aggregate's key table counted per row (m): each grouping column is read
// through the joins of its path from the row, and the values fold into a
// groupKey exactly as aggregate folds them, so a hash collision merges the
// same groups on both paths. Past a right or full outer join, a row whose
// key names a PK row no left tuple holds has that PK table as a pad, and the
// rest of its path reads NULL, as it reads on a pad; so do the columns of
// tables a semi or anti join drops (g.null). A tuple with the key table a pad
// has every grouped table a pad (padsApart) and groups as all NULLs. The
// rows are read a block at a time: every foreign key on a path is
// gathered for the block's rows and turned into the next table's rows, then
// the grouping column for those. The keys go into a groupSet, as aggregate's
// do.
func (c *counter) groups(groupBy []string, g groupPlan, m mult) (int64, error) {
	e := c.e
	type hop struct {
		fk   *storage.Column
		n    int64
		held bitset // the PK rows a pad does not replace; nil: all
	}
	type groupCol struct {
		hops []hop
		vals *storage.Column
	}
	cols := make([]groupCol, len(groupBy))
	for gi, col := range groupBy {
		if g.null[gi] {
			continue
		}
		for _, j := range g.paths[gi] {
			spec := j.Join
			t, err := e.db.Lookup(spec.FKTable)
			if err != nil {
				return 0, err
			}
			fk, err := e.columnData(t, spec.FKCol)
			if err != nil {
				return 0, err
			}
			pk, err := e.db.Lookup(spec.PKTable)
			if err != nil {
				return 0, err
			}
			h := hop{fk: fk, n: int64(pk.Rows())}
			if partsOf[spec.Type].ru {
				ex, err := c.existence(j)
				if err != nil {
					return 0, err
				}
				h.held = ex.l
			}
			cols[gi].hops = append(cols[gi].hops, h)
		}
		t, err := e.db.Lookup(e.owner[col])
		if err != nil {
			return 0, err
		}
		vals, err := e.columnData(t, col)
		if err != nil {
			return 0, fmt.Errorf("aggregate by %s: %w", col, err)
		}
		cols[gi].vals = vals
	}
	bounds := make([]int64, len(groupBy))
	for gi, col := range groupBy {
		if !g.null[gi] {
			bounds[gi] = e.domainBound(e.owner[col], col)
		}
	}
	keys := newGroupSet(bounds, len(m.rows)+1)
	vals := make([][]int64, len(cols))
	if m.null > 0 {
		for gi := range vals {
			vals[gi] = e.block(gi)[:1]
			vals[gi][0] = storage.Null
		}
		keys.add(vals)
	}
	rows := m.rows
	next := make([]int32, blockRows)
	hops := e.block(len(cols))
	for lo := 0; lo < len(rows); lo += blockRows {
		blk := rows[lo:min(lo+blockRows, len(rows))]
		for gi, col := range cols {
			vals[gi] = e.block(gi)[:len(blk)]
			if col.vals == nil {
				for i := range vals[gi] {
					vals[gi][i] = storage.Null
				}
				continue
			}
			at := blk
			for _, h := range col.hops {
				h.fk.Gather(hops, at)
				at = next[:len(blk)]
				for i, k := range hops[:len(blk)] {
					at[i] = nullRow
					if k >= 1 && k <= h.n && (h.held == nil || h.held.test(int(k-1))) {
						at[i] = int32(k - 1)
					}
				}
			}
			col.vals.Gather(vals[gi], at)
		}
		keys.add(vals)
	}
	return keys.len(), nil
}
