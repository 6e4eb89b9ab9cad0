// Package testutil provides shared fixtures for Mirage's unit and
// integration tests, centered on the paper's running example (Figures 1-3):
// tables S and T with T referencing S.
package testutil

import (
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// PaperSchema returns the two-table schema of the running example:
// |S| = 4, |T| = 8, |S|_s1 = 4, |T|_t1 = 5, |T|_t2 = 4.
func PaperSchema() *relalg.Schema {
	return &relalg.Schema{Tables: []*relalg.Table{
		{
			Name: "s", Rows: 4,
			Columns: []relalg.Column{
				{Name: "s_pk", Kind: relalg.PrimaryKey},
				{Name: "s1", Kind: relalg.NonKey, DomainSize: 4},
			},
		},
		{
			Name: "t", Rows: 8,
			Columns: []relalg.Column{
				{Name: "t_pk", Kind: relalg.PrimaryKey},
				{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
				{Name: "t1", Kind: relalg.NonKey, DomainSize: 5},
				{Name: "t2", Kind: relalg.NonKey, DomainSize: 4},
			},
		},
	}}
}

// PaperDB materializes a concrete "in-production" instance of PaperSchema
// laid out as Example 4.8 would populate it (three bound rows (t1,t2)=(4,2)
// at the head of T).
func PaperDB() *storage.DB {
	db := storage.NewDB(PaperSchema())
	s := db.Table("s")
	s.SetCol("s1", []int64{1, 2, 3, 4})
	t := db.Table("t")
	t.SetCol("t_fk", []int64{1, 2, 2, 3, 1, 2, 4, 4})
	t.SetCol("t1", []int64{4, 4, 4, 3, 3, 5, 1, 2})
	t.SetCol("t2", []int64{2, 2, 2, 1, 3, 3, 4, 4})
	return db
}

// PaperWorkload is the four-query workload of Fig. 1 in plan-DSL form, with
// the original parameter values the trace package executes.
const PaperWorkload = `
plan q1 {
	ss = table s
	tt = table t
	v3 = select ss where s1 < 3
	v4 = select tt where t1 > 2
	v5 = join v3 v4 on t_fk type equi
	v6 = project v5 on t_fk
}

plan q2 {
	ss = table s
	tt = table t
	v7 = select tt where t1 - t2 > 0
	v8 = join ss v7 on t_fk type left
}

plan q3 {
	tt = table t
	v9 = select tt where (t1 <= 1 or t2 = 0) and t1 - t2 < 5
}

plan q4 {
	tt = table t
	v10 = select tt where t1 <> 4 or t2 <> 2
}
`
