package genplan

import "github.com/dbhammer/mirage/internal/relalg"

// RetainedColumnsWindowed computes, per table, the set of columns the key
// generator genuinely reads or writes after non-key materialization.
// Out-of-core generation retains exactly this set in memory; everything
// else (the wide non-key payload) is regenerated shard by shard at export
// time. It holds the FK units keygen writes (read by later waves' join views
// and by export) plus what the join constraints' input views bind as whole
// columns: the FK columns nested joins probe (one int64 column per join, not
// the wide payload) and projection/group-by columns (the shapes the windowed
// selection path cannot stream). Predicate columns are absent: the windowed
// engine re-pulls them chunk by chunk through the table's ChunkSource.
// A primary key may be listed (a projection over it) but is never stored:
// storage derives it from the row index, in every mode.
func (p *Problem) RetainedColumnsWindowed() map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(p.Schema.Tables))
	for _, u := range p.Units {
		if out[u.Table] == nil {
			out[u.Table] = make(map[string]bool)
		}
		out[u.Table][u.FKCol] = true
	}
	roots := make([]*relalg.View, 0, 2*len(p.Joins))
	for _, jc := range p.Joins {
		roots = append(roots, jc.LeftView, jc.RightView)
	}
	RetainViewColumns(p.Schema, out, false, roots...)
	return out
}

// RetainViewColumns adds to retain every column the view trees reference:
// projections, group-bys, nested join FK columns and — with includePreds —
// predicate and arithmetic-expression columns. Column names are
// schema-unique in this repo's workloads (the DSL relies on it), so each
// referenced name resolves to its owning table. Nil roots and views shared
// between trees are visited once.
func RetainViewColumns(schema *relalg.Schema, retain map[string]map[string]bool, includePreds bool, roots ...*relalg.View) {
	add := func(table, col string) {
		if retain[table] == nil {
			retain[table] = make(map[string]bool)
		}
		retain[table][col] = true
	}
	owner := make(map[string]string)
	for _, t := range schema.Tables {
		for i := range t.Columns {
			owner[t.Columns[i].Name] = t.Name
		}
	}
	addByName := func(col string) {
		if t, ok := owner[col]; ok {
			add(t, col)
		}
	}

	var scratch []string
	seen := make(map[*relalg.View]bool)
	for _, root := range roots {
		if root == nil || seen[root] {
			continue
		}
		root.Walk(func(v *relalg.View) {
			seen[v] = true
			if v.Pred != nil && includePreds {
				scratch = v.Pred.Columns(scratch[:0])
				for _, c := range scratch {
					addByName(c)
				}
			}
			if v.Join != nil {
				add(v.Join.FKTable, v.Join.FKCol)
			}
			if v.ProjCol != "" {
				add(v.ProjTable, v.ProjCol)
			}
			for _, c := range v.GroupBy {
				addByName(c)
			}
		})
	}
}
