package engine

import (
	"context"
	"runtime"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// allocDB builds a three-table instance (t references s references u) large
// enough that any per-row
// allocation would dominate the per-operator constant.
const allocRows = 100_000

func allocDB(t testing.TB) *storage.DB {
	t.Helper()
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "u", Rows: allocRows / 100, Columns: []relalg.Column{
			{Name: "u_pk", Kind: relalg.PrimaryKey},
			{Name: "u1", Kind: relalg.NonKey, DomainSize: 100},
		}},
		{Name: "s", Rows: allocRows / 4, Columns: []relalg.Column{
			{Name: "s_pk", Kind: relalg.PrimaryKey},
			{Name: "s_fk", Kind: relalg.ForeignKey, Refs: "u"},
			{Name: "s1", Kind: relalg.NonKey, DomainSize: 100},
		}},
		{Name: "t", Rows: allocRows, Columns: []relalg.Column{
			{Name: "t_pk", Kind: relalg.PrimaryKey},
			{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
			{Name: "t1", Kind: relalg.NonKey, DomainSize: 100},
		}},
	}}
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(schema)
	u := db.Table("u")
	u1 := make([]int64, allocRows/100)
	for i := range u1 {
		u1[i] = int64(i%100) + 1
	}
	u.SetCol("u1", u1)
	s := db.Table("s")
	s1 := make([]int64, allocRows/4)
	sfk := make([]int64, allocRows/4)
	for i := range s1 {
		s1[i] = int64(i%100) + 1
		sfk[i] = int64(i%(allocRows/100)) + 1
	}
	s.SetCol("s1", s1)
	s.SetCol("s_fk", sfk)
	tt := db.Table("t")
	fk := make([]int64, allocRows)
	t1 := make([]int64, allocRows)
	for i := range fk {
		fk[i] = int64(i%(allocRows/4)) + 1
		t1[i] = int64(i%100) + 1
	}
	tt.SetCol("t_fk", fk)
	tt.SetCol("t1", t1)
	return db
}

// TestSelectionAllocsPerRow asserts the selection path allocates O(operator),
// not O(row): the whole 100k-row scan must stay under a small constant
// budget (bound structures, stats map entries, and the gathered output
// column), i.e. well below 0.001 allocs/row.
func TestSelectionAllocsPerRow(t *testing.T) {
	db := allocDB(t)
	e, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	q := &relalg.AQT{Name: "sel", Root: sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 50)))}
	run := func() {
		if _, err := e.Execute(q, false); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine's selection-vector scratch
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 50 {
		t.Errorf("selection over %d rows: %.0f allocs/op, want <= 50 (per-operator only)", allocRows, allocs)
	}
}

// TestJoinAllocsPerRow asserts the equi-join path allocates per operator
// (CSR arrays, bitset, exact-size output columns), not per matched pair.
func TestJoinAllocsPerRow(t *testing.T) {
	db := allocDB(t)
	e, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	j := join(relalg.EquiJoin, "s",
		sel(leaf("s"), unary("s1", relalg.OpLe, pv("p1", 50))),
		sel(leaf("t"), unary("t1", relalg.OpLe, pv("p2", 50))), "t", "t_fk")
	q := &relalg.AQT{Name: "join", Root: j}
	run := func() {
		if _, err := e.Execute(q, false); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 60 {
		t.Errorf("join over %d rows: %.0f allocs/op, want <= 60 (per-operator only)", allocRows, allocs)
	}
}

// TestCollectRowsAllocs asserts row-set materialization allocates only the
// bitset and the exact-size result slice — and that the production entry
// point materializes nothing at all for a join-shaped request: a 2-join view
// over all three tables, asked for its 100k-row table through
// CollectRowSetsCtx, stays inside a byte budget that the base relation of
// that table alone (4 bytes a row, before any join output) would break.
func TestCollectRowsAllocs(t *testing.T) {
	db := allocDB(t)
	e, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	v := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p", 50)))
	run := func() {
		if _, err := e.CollectRows(v, "t", false); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 40 {
		t.Errorf("CollectRows over %d rows: %.0f allocs/op, want <= 40", allocRows, allocs)
	}

	// (σ(u) ⋈ σ(s)) ⋈ σ(t): a tenth of t passes its own chain, and a share of
	// those the two joins.
	us := join(relalg.EquiJoin, "u",
		sel(leaf("u"), unary("u1", relalg.OpLe, pv("p1", 50))),
		sel(leaf("s"), unary("s1", relalg.OpLe, pv("p2", 50))), "s", "s_fk")
	ust := join(relalg.EquiJoin, "s", us,
		sel(leaf("t"), unary("t1", relalg.OpLe, pv("p3", 10))), "t", "t_fk")
	reqs := []RowSetRequest{{View: ust, Table: "t"}}
	want, err := e.CollectRows(ust, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	runSets := func() {
		sets, err := e.CollectRowSetsCtx(context.Background(), reqs, false)
		if err != nil {
			t.Fatal(err)
		}
		if sets[0].Len() != len(want) || len(want) == 0 {
			t.Fatalf("reduction returned %d rows, CollectRows %d", sets[0].Len(), len(want))
		}
	}
	runSets() // warm the window scratch
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, runSets)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once more
	if allocs > 100 {
		t.Errorf("2-join row set over %d rows: %.0f allocs/op, want <= 100 (per request and per chain only)", allocRows, allocs)
	}
	if perRun > 4*allocRows {
		t.Errorf("2-join row set over %d rows: %d B/op, want <= %d — something row-sized was materialized", allocRows, perRun, 4*allocRows)
	}
	t.Logf("2-join row set: %.0f allocs/op, %d B/op, %d rows", allocs, perRun, len(want))
}
