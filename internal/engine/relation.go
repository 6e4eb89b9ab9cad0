package engine

// nullRow marks a padded (outer-join) slot in a relation column.
const nullRow int32 = -1

// Relation is an intermediate query result: a bag of composite tuples, each
// identifying one row (or a null pad) per participating base table. Tables
// and their row-index columns are position-aligned parallel slices
// (cols[i] belongs to tables[i]), keeping intermediate results compact,
// iteration allocation-free, and column values accessible without
// materialization.
type Relation struct {
	tables []string
	cols   [][]int32
	n      int
}

// newBaseRelation covers rows [0, n) of a single table.
func newBaseRelation(table string, n int) *Relation {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return &Relation{tables: []string{table}, cols: [][]int32{idx}, n: n}
}

// Len returns the tuple count.
func (r *Relation) Len() int { return r.n }

// Tables returns the participating base tables.
func (r *Relation) Tables() []string { return r.tables }

// tableIdx returns the position of the given base table, or -1. Relations
// span at most a handful of tables, so a linear scan beats any map.
func (r *Relation) tableIdx(table string) int {
	for i, t := range r.tables {
		if t == table {
			return i
		}
	}
	return -1
}

// has reports whether the relation covers the given base table.
func (r *Relation) has(table string) bool { return r.tableIdx(table) >= 0 }

// gather materializes the tuples selected by sel (positions into r) as a new
// relation: one exact-size batch copy per column, no per-tuple bookkeeping.
// The table list is shared — it is immutable after construction.
func (r *Relation) gather(sel []int32) *Relation {
	out := &Relation{tables: r.tables, cols: make([][]int32, len(r.cols)), n: len(sel)}
	for t, src := range r.cols {
		dst := make([]int32, len(sel))
		for k, pos := range sel {
			dst[k] = src[pos]
		}
		out.cols[t] = dst
	}
	return out
}

// newJoinedRelation prepares a relation spanning both inputs' tables with
// every column preallocated to the exact output size n, for index-addressed
// writes by the join fill pass.
func newJoinedRelation(l, r *Relation, n int) *Relation {
	tables := make([]string, 0, len(l.tables)+len(r.tables))
	tables = append(tables, l.tables...)
	tables = append(tables, r.tables...)
	out := &Relation{tables: tables, cols: make([][]int32, len(tables)), n: n}
	for t := range out.cols {
		out.cols[t] = make([]int32, n)
	}
	return out
}

// writeJoined stores the combination of left tuple li and right tuple ri at
// output position pos; either side may be negative to pad it with nulls
// (outer joins).
func (out *Relation) writeJoined(l, r *Relation, li, ri int32, pos int) {
	nL := len(l.cols)
	if li < 0 {
		for t := range l.cols {
			out.cols[t][pos] = nullRow
		}
	} else {
		for t, c := range l.cols {
			out.cols[t][pos] = c[li]
		}
	}
	if ri < 0 {
		for t := range r.cols {
			out.cols[nL+t][pos] = nullRow
		}
	} else {
		for t, c := range r.cols {
			out.cols[nL+t][pos] = c[ri]
		}
	}
}
