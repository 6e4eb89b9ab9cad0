// Package engine executes annotated query templates over in-memory columnar
// databases. It stands in for the test database (PostgreSQL in the paper's
// experiments): the workload parser uses it to extract per-operator
// cardinalities from the "in-production" database, and the validation
// harness uses it to measure the cardinalities and latency the instantiated
// workload achieves on the synthetic database.
//
// The engine supports every operator class Mirage claims in Table 1:
// selections with arbitrary predicates (unary, arithmetic, arbitrary
// logical), all eight PK-FK join variants, duplicate-eliminating projection,
// and terminal aggregation.
//
// Execution is vectorized and allocation-lean: predicates are compiled once
// per operator into bound form (relalg.BindPred) and filter a selection
// vector of tuple positions; joins probe a CSR index over the dense PK
// domain (pk = rowIdx+1: storage derives every key from its row index) and
// write into exact-size preallocated output columns; distinct-tracking uses
// bitsets instead of hash maps. An Engine carries reusable scratch state and therefore must not
// be shared between goroutines — create one engine per worker (see
// validate.WorkloadParallel and keygen.Populate); SetWidth lets one engine's
// row-set collection run its windows on several goroutines of its own.
package engine

import (
	"fmt"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Stats records the observed execution of one query-operator view.
type Stats struct {
	// Card is the output size |V̂|.
	Card int64
	// JCC / JDC are observed for join views: the number of matched row
	// pairs and the number of distinct matched key values (Section 2.2).
	JCC, JDC int64
}

// Result is the outcome of executing one AQT. Wall-clock latency is the
// caller's measurement (validate.Query times Execute): the engine itself
// reads no clocks outside the obs registry, so the telemetry-off path stays
// free — CI greps this package for direct time.Now calls.
type Result struct {
	// Stats maps each view of the template to its observed execution.
	Stats map[*relalg.View]Stats
}

// Engine executes templates against one database instance. It keeps scratch
// buffers between operators, so it is not safe for concurrent use; engines
// are cheap — build one per goroutine.
type Engine struct {
	db    *storage.DB
	owner map[string]string // column name -> owning table
	// selBuf backs the selection vector of the operator currently being
	// evaluated; operators finish with it before their parent runs, so one
	// buffer serves the whole tree.
	selBuf []int32
	// ident backs the rows [0, n) Count reads a bare leaf as; never written
	// through.
	ident []int32
	// m holds the obs handles SetRegistry resolved; with telemetry disabled
	// every handle is nil and recording degenerates to nil checks.
	m engineMetrics
	// win is the table-pass state every engine has: CollectRowSetsCtx and
	// Count scan base tables window by window on both kinds of engine, and
	// columns absent from storage are filled through it (NewWindowed's chunk
	// sources regenerate the ones storage cannot derive).
	win *windowState
	// width is how many goroutines one CollectRowSetsCtx call may evaluate
	// windows and reduction blocks on (SetWidth); Count and Execute always
	// use one.
	width int
}

// engineMetrics caches the per-operator-type telemetry handles: self-time
// and output-cardinality histograms indexed by view kind. Handles are shared
// across engines (the registry dedupes by name) and every recording op is
// atomic.
type engineMetrics struct {
	opNS   [relalg.MultiView + 1]*obs.Histogram
	opRows [relalg.MultiView + 1]*obs.Histogram
	execs  *obs.Counter
	// materialized counts row-set requests answered by evaluating the view
	// (the eval fallback of CollectRowSetsCtx) instead of by reduction, and
	// countMaterialized the templates Count evaluated instead of counting.
	materialized      *obs.Counter
	countMaterialized *obs.Counter
}

// opLabel names each view kind in metric labels.
var opLabel = [relalg.MultiView + 1]string{
	relalg.LeafView:    "leaf",
	relalg.SelectView:  "select",
	relalg.JoinView:    "join",
	relalg.ProjectView: "project",
	relalg.AggView:     "agg",
	relalg.MultiView:   "multi",
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	var m engineMetrics
	for k := range m.opNS {
		m.opNS[k] = reg.HistogramL("engine_op_ns", "op", opLabel[k])
		m.opRows[k] = reg.HistogramL("engine_op_rows", "op", opLabel[k])
	}
	m.execs = reg.Counter("engine_executes_total")
	m.materialized = reg.Counter("engine_rowset_materialized_total")
	m.countMaterialized = reg.Counter("engine_count_materialized_total")
	return m
}

// New builds an engine over the database. Column names must be unique across
// tables (true for all star-schema benchmarks; prefixes like l_ / o_ ensure
// it), because predicates reference columns without qualification.
func New(db *storage.DB) (*Engine, error) {
	owner := make(map[string]string)
	for _, t := range db.Schema.Tables {
		for i := range t.Columns {
			name := t.Columns[i].Name
			if prev, ok := owner[name]; ok {
				return nil, fmt.Errorf("engine: column %q appears in both %q and %q; names must be schema-unique", name, prev, t.Name)
			}
			owner[name] = t.Name
		}
	}
	// A classic engine's table passes read materialized columns in place, at
	// the default window, and never spill.
	win := newWindowState(WindowConfig{SpillRows: -1})
	return &Engine{db: db, owner: owner, win: win, width: 1}, nil
}

// SetRegistry routes the engine's telemetry into reg; nil (the default)
// records nothing. Whoever builds an engine for a run calls it, because the
// engine's recording sites have no context to find the run's registry on.
func (e *Engine) SetRegistry(reg *obs.Registry) {
	e.m = newEngineMetrics(reg)
	e.win.m = newWindowMetrics(reg)
}

// SetWidth lets CollectRowSetsCtx evaluate up to n windows (and semi-join
// reduction blocks) at once, each on its own goroutine with its own scratch;
// n <= 1 evaluates one at a time. The returned row sets, their order and the
// recorded stats are the same at every width. The engine itself still
// belongs to one goroutine.
func (e *Engine) SetWidth(n int) { e.width = max(1, n) }

// DB returns the underlying database.
func (e *Engine) DB() *storage.DB { return e.db }

// Execute runs the template and returns per-view stats. orig selects the
// original parameter values (tracing the production database) instead of the
// instantiated ones (validating the synthetic database). It materializes
// every operator's output: it is the query whose latency validation times
// (Fig. 12), and the oracle and fallback of Count, which annotation uses.
func (e *Engine) Execute(q *relalg.AQT, orig bool) (*Result, error) {
	res := &Result{Stats: make(map[*relalg.View]Stats)}
	e.m.execs.Inc()
	if _, err := e.eval(q.Root, orig, res); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
	}
	return res, nil
}

// colBinding is one column resolved against a relation: the base column
// slice plus the relation's row-index indirection for the owning table.
type colBinding struct {
	vals []int64
	idx  []int32
}

// at reads the column value of tuple i; null-padded slots read as Null.
func (c colBinding) at(i int) int64 {
	ri := c.idx[i]
	if ri < 0 {
		return storage.Null
	}
	return c.vals[ri]
}

// bindColumn resolves a column name against a relation through the owner
// map. It replaces the per-tuple rowReader closure of the row-at-a-time
// engine: resolution happens once per operator, evaluation is two array
// index operations per tuple.
func (e *Engine) bindColumn(rel *Relation, col string) (colBinding, error) {
	table, ok := e.owner[col]
	if !ok {
		return colBinding{}, fmt.Errorf("column %q not owned by any table", col)
	}
	ti := rel.tableIdx(table)
	if ti < 0 {
		return colBinding{}, fmt.Errorf("column %q of table %q not in relation %v", col, table, rel.tables)
	}
	t, err := e.db.Lookup(table)
	if err != nil {
		return colBinding{}, err
	}
	vals, err := e.columnData(t, col)
	if err != nil {
		return colBinding{}, err
	}
	return colBinding{vals: vals, idx: rel.cols[ti]}, nil
}

// columnData resolves a column's full value slice: materialized columns come
// straight from storage. Any other column — the primary key on every engine,
// a regenerated one on a windowed engine — is filled whole through the
// window state and cached for the engine's lifetime: the correctness
// fallback for every read outside a table pass (Execute's operators,
// Count's projections and group-bys), counted in
// engine_window_fallbacks_total so regressions are visible.
func (e *Engine) columnData(t *storage.TableData, col string) ([]int64, error) {
	vals, err := t.Lookup(col)
	if err != nil || vals != nil {
		return vals, err
	}
	key := t.Meta.Name + "." + col
	if c, ok := e.win.fallback[key]; ok {
		return c, nil
	}
	n := t.Rows()
	buf := make([]int64, n)
	if err := e.win.fill(t, col, buf, 0, int64(n)); err != nil {
		return nil, err
	}
	if e.win.fallback == nil {
		e.win.fallback = make(map[string][]int64)
	}
	e.win.fallback[key] = buf
	e.win.m.fallbacks.Inc()
	e.win.m.events.Emit(obs.Event{Type: obs.EventWindowFallback, Table: t.Meta.Name, Kind: col})
	return buf, nil
}

// relationBinder adapts bindColumn to relalg.ColumnBinder for BindPred.
type relationBinder struct {
	e   *Engine
	rel *Relation
}

func (b relationBinder) ResolveColumn(col string) ([]int64, []int32, error) {
	c, err := b.e.bindColumn(b.rel, col)
	if err != nil {
		return nil, nil, err
	}
	return c.vals, c.idx, nil
}

// identitySel returns the scratch selection vector filled with positions
// [0, n). It is consumed (filtered and gathered from) before the parent
// operator runs, so the single per-engine buffer suffices.
func (e *Engine) identitySel(n int) []int32 {
	if cap(e.selBuf) < n {
		e.selBuf = make([]int32, n)
	}
	sel := e.selBuf[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

func (e *Engine) eval(v *relalg.View, orig bool, res *Result) (*Relation, error) {
	switch v.Kind {
	case relalg.LeafView:
		t, ok := e.db.Tables[v.Table]
		if !ok {
			return nil, fmt.Errorf("leaf view on unknown table %q", v.Table)
		}
		rel := newBaseRelation(v.Table, t.Rows())
		e.m.opRows[v.Kind].Observe(int64(rel.Len()))
		res.Stats[v] = Stats{Card: int64(rel.Len()), JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		return rel, nil

	case relalg.SelectView:
		in, err := e.eval(v.Inputs[0], orig, res)
		if err != nil {
			return nil, err
		}
		tm := e.m.opNS[v.Kind].Start()
		bound, err := relalg.BindPred(v.Pred, relationBinder{e: e, rel: in}, orig)
		if err != nil {
			return nil, err
		}
		sel := bound.FilterBatch(e.identitySel(in.Len()))
		out := in.gather(sel)
		tm.Stop()
		e.m.opRows[v.Kind].Observe(int64(out.Len()))
		res.Stats[v] = Stats{Card: int64(out.Len()), JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		return out, nil

	case relalg.JoinView:
		left, err := e.eval(v.Inputs[0], orig, res)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(v.Inputs[1], orig, res)
		if err != nil {
			return nil, err
		}
		tm := e.m.opNS[v.Kind].Start()
		out, jcc, jdc, err := e.join(v.Join, left, right)
		if err != nil {
			return nil, err
		}
		tm.Stop()
		e.m.opRows[v.Kind].Observe(int64(out.Len()))
		res.Stats[v] = Stats{Card: int64(out.Len()), JCC: jcc, JDC: jdc}
		return out, nil

	case relalg.ProjectView:
		in, err := e.eval(v.Inputs[0], orig, res)
		if err != nil {
			return nil, err
		}
		ti := in.tableIdx(v.ProjTable)
		if ti < 0 {
			return nil, fmt.Errorf("projection on %s.%s: table not in input relation %v", v.ProjTable, v.ProjCol, in.Tables())
		}
		projTab, err := e.db.Lookup(v.ProjTable)
		if err != nil {
			return nil, err
		}
		projCol, err := e.columnData(projTab, v.ProjCol)
		if err != nil {
			return nil, err
		}
		tm := e.m.opNS[v.Kind].Start()
		card := e.distinctValues(projCol, in.cols[ti], e.domainBound(v.ProjTable, v.ProjCol))
		tm.Stop()
		e.m.opRows[v.Kind].Observe(card)
		// The projection result is a set of scalar values; downstream
		// views (only aggregates in practice) see its cardinality.
		res.Stats[v] = Stats{Card: card, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		return in, nil

	case relalg.AggView:
		in, err := e.eval(v.Inputs[0], orig, res)
		if err != nil {
			return nil, err
		}
		tm := e.m.opNS[v.Kind].Start()
		groups, err := e.aggregate(in, v.GroupBy)
		if err != nil {
			return nil, err
		}
		tm.Stop()
		e.m.opRows[v.Kind].Observe(groups)
		res.Stats[v] = Stats{Card: groups, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		return in, nil

	case relalg.MultiView:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("multi view %q has no inputs", v.Name)
		}
		var last *Relation
		for _, in := range v.Inputs {
			rel, err := e.eval(in, orig, res)
			if err != nil {
				return nil, err
			}
			last = rel
		}
		res.Stats[v] = Stats{Card: int64(last.Len()), JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		return last, nil
	}
	return nil, fmt.Errorf("unknown view kind %v", v.Kind)
}

// domainBound returns the inclusive upper bound of a column's dense value
// domain [1, bound]: primary keys hold 1..rows, foreign keys reference
// 1..refRows, and non-key columns hold 1..DomainSize in cardinality space.
// Values outside the bound (never produced by the generators, but tolerated)
// fall back to a hash map in distinctValues.
// Unknown tables or columns yield bound 0 (the map fallback), matching the
// tolerance the function already extends to out-of-domain values.
func (e *Engine) domainBound(table, col string) int64 {
	t, ok := e.db.Tables[table]
	if !ok {
		return 0
	}
	c, _ := t.Meta.Column(col)
	if c == nil {
		return 0
	}
	switch c.Kind {
	case relalg.PrimaryKey:
		return int64(t.Rows())
	case relalg.ForeignKey:
		ref, ok := e.db.Tables[c.Refs]
		if !ok {
			return 0
		}
		return int64(ref.Rows())
	default:
		return c.DomainSize
	}
}

// distinctValues counts the distinct non-null column values of the (possibly
// padded) row-index slice. Values in [1, bound] — the generators' entire
// output range — are tracked in a bitset; anything else spills to a map.
func (e *Engine) distinctValues(col []int64, idx []int32, bound int64) int64 {
	var seen bitset
	if bound > 0 {
		seen = newBitset(int(bound))
	}
	var overflow map[int64]bool
	var card int64
	for _, ri := range idx {
		if ri < 0 {
			continue
		}
		val := col[ri]
		if val == storage.Null {
			continue
		}
		if val >= 1 && val <= bound {
			if b := int(val - 1); !seen.test(b) {
				seen.set(b)
				card++
			}
			continue
		}
		if overflow == nil {
			overflow = make(map[int64]bool)
		}
		if !overflow[val] {
			overflow[val] = true
			card++
		}
	}
	return card
}

// join evaluates a PK-FK join between the left (PK-side) and right (FK-side)
// relations, returning the output relation and the observed JCC/JDC pair.
//
// The PK domain is dense (pk of row r is r+1), so instead of a hash table
// the left side is indexed CSR-style: pk value p owns the left tuple
// positions partners[offsets[p-1]:offsets[p]]. A counting pass then sizes
// the output exactly, and a fill pass writes tuples by index — no map
// iteration, no append growth, no per-pair bookkeeping beyond bitset tests.
func (e *Engine) join(spec *relalg.JoinSpec, left, right *Relation) (*Relation, int64, int64, error) {
	lt := left.tableIdx(spec.PKTable)
	if lt < 0 {
		return nil, 0, 0, fmt.Errorf("join %s: PK table not in left relation %v", spec, left.Tables())
	}
	rt := right.tableIdx(spec.FKTable)
	if rt < 0 {
		return nil, 0, 0, fmt.Errorf("join %s: FK table not in right relation %v", spec, right.Tables())
	}
	lIdx := left.cols[lt]
	rIdx := right.cols[rt]
	pkTab, err := e.db.Lookup(spec.PKTable)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("join %s: %w", spec, err)
	}
	fkTab, err := e.db.Lookup(spec.FKTable)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("join %s: %w", spec, err)
	}
	nPK := pkTab.Rows()
	fkCol, err := e.columnData(fkTab, spec.FKCol)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("join %s: %w", spec, err)
	}

	// Build the CSR index over left tuples: bucket of tuple i is its PK-table
	// row index (pk value - 1). Null-padded left tuples join nothing.
	offsets := make([]int32, nPK+1)
	nonNull := 0
	for _, ri := range lIdx {
		if ri >= 0 {
			offsets[ri+1]++
			nonNull++
		}
	}
	for b := 0; b < nPK; b++ {
		offsets[b+1] += offsets[b]
	}
	partners := make([]int32, nonNull)
	next := make([]int32, nPK)
	copy(next, offsets[:nPK])
	for i, ri := range lIdx {
		if ri >= 0 {
			partners[next[ri]] = int32(i)
			next[ri]++
		}
	}

	// Probe pass: per matched PK value one bit; jcc accumulates the partner
	// count of every matching right tuple (JCC), the bit count is JDC.
	matched := newBitset(nPK)
	var jcc int64
	rightMatched := 0
	for _, ri := range rIdx {
		b := probeBucket(ri, fkCol, nPK)
		if b < 0 {
			continue
		}
		cnt := int64(offsets[b+1] - offsets[b])
		if cnt == 0 {
			continue
		}
		matched.set(int(b))
		jcc += cnt
		rightMatched++
	}
	jdc := int64(matched.count())

	// A left tuple is matched iff its PK bucket is — tuples live in exactly
	// one bucket, so the matched-tuple count is a sum over matched buckets.
	needLeft := spec.Type == relalg.LeftOuterJoin || spec.Type == relalg.FullOuterJoin ||
		spec.Type == relalg.LeftSemiJoin || spec.Type == relalg.LeftAntiJoin
	leftMatched := 0
	if needLeft {
		for wi, w := range matched {
			for w != 0 {
				b := wi<<6 + trailingZeros(w)
				leftMatched += int(offsets[b+1] - offsets[b])
				w &= w - 1
			}
		}
	}

	var outN int
	switch spec.Type {
	case relalg.EquiJoin:
		outN = int(jcc)
	case relalg.LeftOuterJoin:
		outN = int(jcc) + left.Len() - leftMatched
	case relalg.RightOuterJoin:
		outN = int(jcc) + right.Len() - rightMatched
	case relalg.FullOuterJoin:
		outN = int(jcc) + right.Len() - rightMatched + left.Len() - leftMatched
	case relalg.LeftSemiJoin:
		outN = leftMatched
	case relalg.RightSemiJoin:
		outN = rightMatched
	case relalg.LeftAntiJoin:
		outN = left.Len() - leftMatched
	case relalg.RightAntiJoin:
		outN = right.Len() - rightMatched
	default:
		return nil, 0, 0, fmt.Errorf("join %s: unknown join type", spec)
	}
	out := newJoinedRelation(left, right, outN)

	// Fill pass, in the same tuple order the row-at-a-time engine emitted:
	// right-driven matches (and right pads) first, left completion after.
	emitMatches := spec.Type == relalg.EquiJoin || spec.Type == relalg.LeftOuterJoin ||
		spec.Type == relalg.RightOuterJoin || spec.Type == relalg.FullOuterJoin
	pos := 0
	if emitMatches || spec.Type == relalg.RightSemiJoin || spec.Type == relalg.RightAntiJoin {
		for i, ri := range rIdx {
			b := probeBucket(ri, fkCol, nPK)
			var lo, hi int32
			if b >= 0 {
				lo, hi = offsets[b], offsets[b+1]
			}
			if lo == hi {
				switch spec.Type {
				case relalg.RightOuterJoin, relalg.FullOuterJoin, relalg.RightAntiJoin:
					out.writeJoined(left, right, -1, int32(i), pos)
					pos++
				}
				continue
			}
			switch {
			case emitMatches:
				for _, li := range partners[lo:hi] {
					out.writeJoined(left, right, li, int32(i), pos)
					pos++
				}
			case spec.Type == relalg.RightSemiJoin:
				out.writeJoined(left, right, -1, int32(i), pos)
				pos++
			}
		}
	}
	switch spec.Type {
	case relalg.LeftOuterJoin, relalg.FullOuterJoin, relalg.LeftAntiJoin:
		for i, ri := range lIdx {
			if ri < 0 || !matched.test(int(ri)) {
				out.writeJoined(left, right, int32(i), -1, pos)
				pos++
			}
		}
	case relalg.LeftSemiJoin:
		for i, ri := range lIdx {
			if ri >= 0 && matched.test(int(ri)) {
				out.writeJoined(left, right, int32(i), -1, pos)
				pos++
			}
		}
	}
	if pos != outN {
		return nil, 0, 0, fmt.Errorf("join %s: emitted %d tuples, sized %d", spec, pos, outN)
	}
	return out, jcc, jdc, nil
}

// probeBucket maps a right tuple's FK-table row index to its CSR bucket, or
// -1 for null pads, NULL foreign keys, and values outside the PK domain
// (which the hash engine likewise treated as matching nothing).
func probeBucket(ri int32, fkCol []int64, nPK int) int64 {
	if ri < 0 {
		return -1
	}
	fk := fkCol[ri]
	if fk < 1 || fk > int64(nPK) {
		return -1
	}
	return fk - 1
}

// aggregate hash-groups the relation and returns the group count. It reads
// every grouping value through per-operator column bindings, so its cost
// tracks input size — giving the latency-fidelity experiment a realistic
// terminal operator.
func (e *Engine) aggregate(in *Relation, groupBy []string) (int64, error) {
	if len(groupBy) == 0 {
		if in.Len() == 0 {
			return 0, nil
		}
		return 1, nil
	}
	cols := make([]colBinding, len(groupBy))
	for gi, g := range groupBy {
		c, err := e.bindColumn(in, g)
		if err != nil {
			return 0, fmt.Errorf("aggregate by %s: %w", g, err)
		}
		cols[gi] = c
	}
	groups := make(map[groupKey]struct{})
	for i := 0; i < in.Len(); i++ {
		k := groupKey{a: cols[0].at(i)}
		for _, c := range cols[1:] {
			k = k.fold(c.at(i))
		}
		groups[k] = struct{}{}
	}
	return int64(len(groups)), nil
}

// groupKey is what an aggregate groups a tuple by: its first grouping value,
// with every further one folded into b by a simple order-sensitive hash.
// Collisions only perturb the (already unconstrained) aggregate cardinality;
// aggregate and Count fold alike, so they perturb it identically.
type groupKey struct {
	a, b int64
}

func (k groupKey) fold(v int64) groupKey {
	k.b = k.b*1000003 + v
	return k
}
