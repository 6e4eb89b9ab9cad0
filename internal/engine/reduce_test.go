package engine

// Oracle tests of semi-join reduction: on random schemas and random
// equi-join trees every row set CollectRowSetsCtx returns must equal
// CollectRows — the materializing definition — on classic and windowed
// engines alike, every selection must count what Execute counts, and every
// view shape outside the reducible class must take the eval fallback and
// still agree.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// fkEdge is one PK-FK reference of a random schema: child.col references
// parent's primary key.
type fkEdge struct {
	child, parent int
	col           string
}

// randSchema is a random database for the reduction property test, in the
// manner of a rule-based workload synthesizer: the knobs are the shape of
// the reference graph, the fan-out of every reference and the share of
// foreign keys that match nothing.
type randSchema struct {
	schema *relalg.Schema
	edges  []fkEdge
	cols   map[string][]int64 // every non-PK column's values, by column name
}

func tableName(i int) string { return fmt.Sprintf("r%d", i) }

// newRandSchema draws 3–6 tables whose references form a tree: a star (table
// 0 references every other), a chain (table i-1 references table i), or a
// snowflake (a random earlier table references table i, or — one edge in
// three — the other way round, so a table can be the PK side of one
// reference and the FK side of another). Tables have 0–40 rows; a
// reference's fan-out is none (every key NULL, 0 or nPK+1), one (each PK row
// referenced at most once) or many.
func newRandSchema(rng *rand.Rand) *randSchema {
	n := 3 + rng.Intn(4)
	shape := rng.Intn(3)
	rs := &randSchema{schema: &relalg.Schema{}, cols: make(map[string][]int64)}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(41)
		if rng.Intn(8) == 0 {
			rows[i] = 0
		}
	}
	for i := 1; i < n; i++ {
		var e fkEdge
		switch shape {
		case 0: // star
			e = fkEdge{child: 0, parent: i}
		case 1: // chain
			e = fkEdge{child: i - 1, parent: i}
		default: // snowflake, either direction
			e = fkEdge{child: rng.Intn(i), parent: i}
			if rng.Intn(3) == 0 {
				e.child, e.parent = e.parent, e.child
			}
		}
		e.col = fmt.Sprintf("%s_fk%d", tableName(e.child), e.parent)
		rs.edges = append(rs.edges, e)
	}
	for i := 0; i < n; i++ {
		name := tableName(i)
		t := &relalg.Table{Name: name, Rows: int64(rows[i]), Columns: []relalg.Column{
			{Name: name + "_pk", Kind: relalg.PrimaryKey},
			{Name: name + "_a", Kind: relalg.NonKey, DomainSize: 5},
		}}
		a := make([]int64, rows[i])
		for r := range a {
			a[r] = int64(1 + rng.Intn(5))
		}
		rs.cols[name+"_a"] = a
		for _, e := range rs.edges {
			if e.child != i {
				continue
			}
			t.Columns = append(t.Columns, relalg.Column{Name: e.col, Kind: relalg.ForeignKey, Refs: tableName(e.parent)})
			nPK := int64(rows[e.parent])
			misses := []int64{storage.Null, 0, nPK + 1}
			fk := make([]int64, rows[i])
			fanout := rng.Intn(3)
			perm := rng.Perm(int(nPK))
			for r := range fk {
				switch {
				case fanout == 0 || nPK == 0 || rng.Intn(6) == 0:
					fk[r] = misses[rng.Intn(len(misses))]
				case fanout == 1 && r < len(perm):
					fk[r] = int64(perm[r]) + 1
				case fanout == 1:
					fk[r] = storage.Null
				default:
					fk[r] = 1 + rng.Int63n(nPK)
				}
			}
			rs.cols[e.col] = fk
		}
		rs.schema.Tables = append(rs.schema.Tables, t)
	}
	return rs
}

// db materializes the schema. With all set every column is in storage (the
// classic engine's database); without, only the keys are, and the non-key
// columns have to come through the returned chunk source.
func (rs *randSchema) db(all bool) (*storage.DB, map[string]ChunkSource) {
	db := storage.NewDB(rs.schema)
	src := &mapSource{cols: rs.cols}
	sources := make(map[string]ChunkSource)
	for _, t := range rs.schema.Tables {
		td := db.Table(t.Name)
		sources[t.Name] = src
		for _, c := range t.Columns {
			if c.Kind == relalg.ForeignKey || (all && c.Kind == relalg.NonKey) {
				td.SetCol(c.Name, rs.cols[c.Name])
			}
		}
	}
	return db, sources
}

// randChain wraps table i's leaf in 0–2 selections on its non-key column,
// with thresholds that sometimes keep every row and sometimes none.
func (rs *randSchema) randChain(rng *rand.Rand, i int) *relalg.View {
	v := leaf(tableName(i))
	for k := rng.Intn(3); k > 0; k-- {
		op := relalg.OpGt
		if rng.Intn(2) == 0 {
			op = relalg.OpLe
		}
		v = sel(v, unary(tableName(i)+"_a", op, pv("p", int64(rng.Intn(7)))))
	}
	return v
}

// randJoinTree builds a random equi-join tree over the connected table set
// tables: pick one of the references inside the set, split the set at it,
// and join the PK side's tree with the FK side's. A single table is a chain.
func (rs *randSchema) randJoinTree(rng *rand.Rand, tables []int) *relalg.View {
	if len(tables) == 1 {
		return rs.randChain(rng, tables[0])
	}
	var inside []fkEdge
	for _, e := range rs.edges {
		if slices.Contains(tables, e.child) && slices.Contains(tables, e.parent) {
			inside = append(inside, e)
		}
	}
	cut := inside[rng.Intn(len(inside))]
	// The component of the cut's parent once the cut is removed.
	side := []int{cut.parent}
	for grew := true; grew; {
		grew = false
		for _, e := range inside {
			if e == cut {
				continue
			}
			hasC, hasP := slices.Contains(side, e.child), slices.Contains(side, e.parent)
			if hasC != hasP {
				if hasC {
					side = append(side, e.parent)
				} else {
					side = append(side, e.child)
				}
				grew = true
			}
		}
	}
	var other []int
	for _, t := range tables {
		if !slices.Contains(side, t) {
			other = append(other, t)
		}
	}
	return join(relalg.EquiJoin, tableName(cut.parent), rs.randJoinTree(rng, side),
		rs.randJoinTree(rng, other), tableName(cut.child), cut.col)
}

// randTables draws a connected set of 2–5 tables (so a tree over it is 1–4
// joins deep at most): a random table, grown along random references.
func (rs *randSchema) randTables(rng *rand.Rand) []int {
	want := 2 + rng.Intn(4)
	tables := []int{rng.Intn(len(rs.schema.Tables))}
	for len(tables) < want {
		var next []int
		for _, e := range rs.edges {
			hasC, hasP := slices.Contains(tables, e.child), slices.Contains(tables, e.parent)
			if hasC && !hasP {
				next = append(next, e.parent)
			} else if hasP && !hasC {
				next = append(next, e.child)
			}
		}
		if len(next) == 0 {
			break
		}
		tables = append(tables, next[rng.Intn(len(next))])
	}
	return tables
}

func joinDepth(v *relalg.View) int {
	d := 0
	for _, in := range v.Inputs {
		d = max(d, joinDepth(in))
	}
	if v.Kind == relalg.JoinView {
		d++
	}
	return d
}

// reductionEngines builds the engines the oracle tests compare: a classic one
// over the fully materialized database, and windowed ones — keys in storage,
// everything else regenerated — at windows 1 / 3 / 2^20 × spill 1 / off.
func reductionEngines(t *testing.T, rs *randSchema) map[string]*Engine {
	t.Helper()
	engines := make(map[string]*Engine)
	db, _ := rs.db(true)
	classic, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	engines["classic"] = classic
	for _, rows := range []int64{1, 3, 1 << 20} {
		for _, spill := range []int{1, -1} {
			db, sources := rs.db(false)
			eng, err := NewWindowed(db, WindowConfig{Rows: rows, Sources: sources, SpillDir: t.TempDir(), SpillRows: spill})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			engines[fmt.Sprintf("window=%d spill=%d", rows, spill)] = eng
		}
	}
	return engines
}

// checkAgainstOracle asks every engine for the row set of every table of v in
// one call and compares with CollectRows on the oracle engine; every
// selection's recorded cardinality must be what Execute observes.
func checkAgainstOracle(t *testing.T, name string, oracle *Engine, engines map[string]*Engine, v *relalg.View) {
	t.Helper()
	wantStats, err := oracle.Execute(&relalg.AQT{Name: name, Root: v}, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var reqs []RowSetRequest
	var want [][]int32
	for _, table := range viewTables(v) {
		rows, err := oracle.CollectRows(v, table, false)
		if err != nil {
			t.Fatalf("%s: oracle rows of %s: %v", name, table, err)
		}
		reqs = append(reqs, RowSetRequest{View: v, Table: table})
		want = append(want, rows)
	}
	for ename, eng := range engines {
		res := &Result{Stats: make(map[*relalg.View]Stats)}
		sets, err := eng.collectRowSets(context.Background(), reqs, false, res)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, ename, err)
		}
		for i, set := range sets {
			if got := collectSet(t, set); !slices.Equal(got, want[i]) {
				t.Errorf("%s on %s: rows of %s = %v, CollectRows says %v\n%s", name, ename, reqs[i].Table, got, want[i], v.Format())
			}
		}
		v.Walk(func(n *relalg.View) {
			if n.Kind == relalg.SelectView && res.Stats[n].Card != wantStats.Stats[n].Card {
				t.Errorf("%s on %s: selection %s counted %d, Execute %d", name, ename, n.Pred, res.Stats[n].Card, wantStats.Stats[n].Card)
			}
		})
		if len(eng.win.spills) != 0 {
			t.Errorf("%s on %s: spill files outlive their released sets: %v", name, ename, eng.win.spills)
		}
	}
}

// TestReductionMatchesCollectRows is the property test: random schemas of
// 3–6 tables (star, snowflake, chain; fan-out none, one, many; NULL, 0 and
// nPK+1 foreign keys; empty tables, empty and full chains) and random
// equi-join trees of depth 1–4 over them.
func TestReductionMatchesCollectRows(t *testing.T) {
	depths := make(map[int]int)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := newRandSchema(rng)
		if err := rs.schema.Validate(); err != nil {
			t.Fatal(err)
		}
		engines := reductionEngines(t, rs)
		for k := 0; k < 4; k++ {
			v := rs.randJoinTree(rng, rs.randTables(rng))
			if !reducible(v) {
				t.Fatalf("seed %d view %d: generated tree is not reducible:\n%s", seed, k, v.Format())
			}
			depths[joinDepth(v)]++
			checkAgainstOracle(t, fmt.Sprintf("seed %d view %d", seed, k), engines["classic"], engines, v)
		}
	}
	for d := 1; d <= 4; d++ {
		if depths[d] == 0 {
			t.Errorf("no generated join tree of depth %d: %v", d, depths)
		}
	}
}

// TestNonReducibleShapesFallBack runs one view of each shape outside the
// reducible class — an outer, a semi and an anti join inside the view, a
// selection over a join output, a projection, the same table under both
// inputs — and checks each is answered by the eval fallback (the structural
// test says so and engine_rowset_materialized_total counts it) with the rows
// CollectRows defines. A reducible view beside them must not be counted.
func TestNonReducibleShapesFallBack(t *testing.T) {
	selS := func() *relalg.View { return sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 4))) }
	selT := func() *relalg.View { return sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2))) }
	inner := func(jt relalg.JoinType) *relalg.View { return join(jt, "s", selS(), selT(), "t", "t_fk") }
	cases := []struct {
		name  string
		view  *relalg.View
		table string
	}{
		{"left outer join", inner(relalg.LeftOuterJoin), "s"},
		{"right semi join", inner(relalg.RightSemiJoin), "t"},
		{"left anti join", inner(relalg.LeftAntiJoin), "s"},
		{"selection over a join", sel(inner(relalg.EquiJoin), unary("s1", relalg.OpGt, pv("p3", 1))), "t"},
		{"projection", proj(inner(relalg.EquiJoin), "s", "s1"), "t"},
		{"table under both inputs", join(relalg.EquiJoin, "s", inner(relalg.EquiJoin), selT(), "t", "t_fk"), "s"},
	}
	oracle, err := New(paperDB(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if reducible(tc.view) {
			t.Errorf("%s: classified reducible", tc.name)
		}
		want, err := oracle.CollectRows(tc.view, tc.table, false)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		for _, windowed := range []bool{false, true} {
			reg := obs.NewRegistry()
			var eng *Engine
			if windowed {
				db, src := windowedPaperDB()
				eng, err = NewWindowed(db, WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}})
			} else {
				eng, err = New(paperDB(t))
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.SetRegistry(reg)
			sets, err := eng.CollectRowSetsCtx(context.Background(), []RowSetRequest{
				{View: tc.view, Table: tc.table},
				{View: inner(relalg.EquiJoin), Table: "t"},
			}, false)
			if err != nil {
				t.Fatalf("%s windowed=%v: %v", tc.name, windowed, err)
			}
			if got := collectSet(t, sets[0]); !slices.Equal(got, want) {
				t.Errorf("%s windowed=%v: rows %v, CollectRows says %v", tc.name, windowed, got, want)
			}
			sets[1].Release()
			if n := reg.Snapshot().Counters["engine_rowset_materialized_total"]; n != 1 {
				t.Errorf("%s windowed=%v: engine_rowset_materialized_total = %d, want 1", tc.name, windowed, n)
			}
			eng.Close()
		}
	}
}
