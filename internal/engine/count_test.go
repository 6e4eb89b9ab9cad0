package engine

// Oracle tests of the counting path: on random schemas and random reducible
// join trees, wrapped in projections on foreign-key columns and aggregates
// grouping by one to three columns of one to three tables, Count must report
// every view's Stats exactly as Execute — the materializing definition —
// does, on classic and windowed engines alike.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

func agg(in *relalg.View, groupBy ...string) *relalg.View {
	return &relalg.View{Kind: relalg.AggView, GroupBy: groupBy, Inputs: []*relalg.View{in}, Card: relalg.CardUnknown}
}

// randWrap puts v under up to two wrappers: a projection on the foreign-key
// column of one of v's tables, and an aggregate grouping by 0–3 columns
// (keys or not) of 1–3 of v's tables.
func (rs *randSchema) randWrap(rng *rand.Rand, v *relalg.View) *relalg.View {
	tables := viewTables(v)
	if rng.Intn(3) == 0 {
		var fks []fkEdge
		for _, e := range rs.edges {
			if slices.Contains(tables, tableName(e.child)) {
				fks = append(fks, e)
			}
		}
		if len(fks) > 0 {
			e := fks[rng.Intn(len(fks))]
			v = proj(v, tableName(e.child), e.col)
		}
	}
	if rng.Intn(4) == 0 {
		return v
	}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	var cols []string
	for _, table := range tables[:1+rng.Intn(min(3, len(tables)))] {
		for _, c := range rs.schema.Table(table).Columns {
			cols = append(cols, c.Name)
		}
	}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	return agg(v, cols[:rng.Intn(min(3, len(cols))+1)]...)
}

// checkCountAgainstExecute compares every view's Stats under Count on every
// engine with Execute's on the oracle engine. With memos set it also counts q
// and then a copy of q sharing its parameters through each engine's memo —
// the copy, like a forest tree, is answered from what q left behind — and
// holds the copy to the same Stats.
func checkCountAgainstExecute(t *testing.T, name string, oracle *Engine, engines map[string]*Engine, memos map[string]*CountMemo, q *relalg.AQT) {
	t.Helper()
	want, err := oracle.Execute(q, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var views []*relalg.View
	q.Root.Walk(func(v *relalg.View) { views = append(views, v) })
	check := func(how string, got *Result, root *relalg.View) {
		t.Helper()
		if len(got.Stats) != len(want.Stats) {
			t.Errorf("%s %s: %d views counted, Execute %d", name, how, len(got.Stats), len(want.Stats))
		}
		i := 0
		root.Walk(func(v *relalg.View) {
			if w := want.Stats[views[i]]; got.Stats[v] != w {
				t.Errorf("%s %s: %s counted %+v, Execute %+v\n%s", name, how, v, got.Stats[v], w, q.Root.Format())
			}
			i++
		})
	}
	for ename, eng := range engines {
		got, err := eng.Count(q, false, nil)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, ename, err)
		}
		check("on "+ename, got, q.Root)
		memo := memos[ename]
		if memo == nil {
			continue
		}
		if got, err = eng.Count(q, false, memo); err != nil {
			t.Fatalf("%s on %s: %v", name, ename, err)
		}
		check("through the memo on "+ename, got, q.Root)
		clone := &relalg.AQT{Name: q.Name, Root: relalg.CloneViewShared(q.Root)}
		if got, err = eng.Count(clone, false, memo); err != nil {
			t.Fatalf("%s on %s: %v", name, ename, err)
		}
		check("copy through the memo on "+ename, got, clone.Root)
	}
}

// TestCountMatchesExecute is the counting path's property test, over
// TestReductionMatchesCollectRows's generator: star, chain and snowflake
// schemas with flipped references; NULL, 0 and nPK+1 foreign keys; empty
// tables; join trees of depth 1–4, bare or wrapped; counted alone and through
// a memo. It also checks the trees took the counting path: every bare tree and every projection, and the
// aggregates whose grouped tables a single table reaches.
func TestCountMatchesExecute(t *testing.T) {
	var counted, grouped, multiTable, evaluated int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := newRandSchema(rng)
		engines := reductionEngines(t, rs)
		memos := make(map[string]*CountMemo)
		for ename := range engines {
			memos[ename] = &CountMemo{}
		}
		for k := 0; k < 6; k++ {
			core := rs.randJoinTree(rng, rs.randTables(rng))
			root := core
			if k > 0 {
				root = rs.randWrap(rng, core)
			}
			p := engines["classic"].countPlan(root)
			switch {
			case p != nil:
				counted++
			case root.Kind != relalg.AggView:
				t.Fatalf("seed %d view %d: no counting plan for\n%s", seed, k, root.Format())
			default:
				evaluated++
			}
			if p != nil && root.Kind == relalg.AggView && len(root.GroupBy) > 0 {
				grouped++
				owners := make(map[string]bool)
				for _, g := range root.GroupBy {
					owners[engines["classic"].owner[g]] = true
				}
				if len(owners) > 1 {
					multiTable++
				}
			}
			q := &relalg.AQT{Name: fmt.Sprintf("seed %d view %d", seed, k), Root: root}
			checkCountAgainstExecute(t, q.Name, engines["classic"], engines, memos, q)
		}
	}
	t.Logf("%d trees counted (%d grouped, %d over several tables), %d evaluated", counted, grouped, multiTable, evaluated)
	if grouped < 50 || multiTable < 10 {
		t.Errorf("only %d grouped aggregates counted, %d over several tables", grouped, multiTable)
	}
}

// vDB is a database where two tables reference the same third one: a and b
// both hold a foreign key into c, so no table reaches both a and b.
func vDB(t *testing.T) *storage.DB {
	t.Helper()
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "c", Rows: 3, Columns: []relalg.Column{{Name: "c_pk", Kind: relalg.PrimaryKey}}},
		{Name: "a", Rows: 4, Columns: []relalg.Column{
			{Name: "a_pk", Kind: relalg.PrimaryKey},
			{Name: "a_fk", Kind: relalg.ForeignKey, Refs: "c"},
			{Name: "a1", Kind: relalg.NonKey, DomainSize: 3},
		}},
		{Name: "b", Rows: 4, Columns: []relalg.Column{
			{Name: "b_pk", Kind: relalg.PrimaryKey},
			{Name: "b_fk", Kind: relalg.ForeignKey, Refs: "c"},
			{Name: "b1", Kind: relalg.NonKey, DomainSize: 3},
		}},
	}}
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(schema)
	for name, fk := range map[string][]int64{"a": {1, 1, 2, 3}, "b": {1, 2, 2, storage.Null}} {
		td := db.Table(name)
		td.SetCol(name+"_fk", fk)
		td.SetCol(name+"1", []int64{1, 2, 3, 1})
	}
	return db
}

// TestCountFallsBack runs one template of each shape Count does not count —
// an outer, a semi and an anti join, a selection over a join, a MultiView, a
// table under both inputs of a join, and an aggregate whose grouped tables no
// single table reaches along foreign keys — and checks each is evaluated
// (engine_count_materialized_total counts it) with Execute's Stats, while a
// counted template beside them is not.
func TestCountFallsBack(t *testing.T) {
	selS := func() *relalg.View { return sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 4))) }
	selT := func() *relalg.View { return sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2))) }
	inner := func(jt relalg.JoinType) *relalg.View { return join(jt, "s", selS(), selT(), "t", "t_fk") }
	multi := &relalg.View{Kind: relalg.MultiView, Inputs: []*relalg.View{inner(relalg.EquiJoin), selS()}, Card: relalg.CardUnknown}
	vJoin := func() *relalg.View {
		return join(relalg.EquiJoin, "c", join(relalg.EquiJoin, "c", leaf("c"), leaf("a"), "a", "a_fk"), leaf("b"), "b", "b_fk")
	}
	cases := []struct {
		name  string
		root  *relalg.View
		v     bool // over vDB instead of paperDB
		count bool
	}{
		{"left outer join", agg(inner(relalg.LeftOuterJoin), "s1"), false, false},
		{"right semi join", proj(inner(relalg.RightSemiJoin), "t", "t_fk"), false, false},
		{"left anti join", inner(relalg.LeftAntiJoin), false, false},
		{"selection over a join", agg(sel(inner(relalg.EquiJoin), unary("s1", relalg.OpGt, pv("p3", 1)))), false, false},
		{"multi view", multi, false, false},
		{"table under both inputs", join(relalg.EquiJoin, "s", inner(relalg.EquiJoin), selT(), "t", "t_fk"), false, false},
		{"no table reaches every grouped table", agg(vJoin(), "a1", "b1"), true, false},
		{"counted: one grouped table reached from each side", agg(vJoin(), "a1", "c_pk"), true, true},
		{"counted: aggregate over a projection", agg(proj(inner(relalg.EquiJoin), "t", "t_fk"), "s1", "t2"), false, true},
	}
	for _, tc := range cases {
		db := paperDB(t)
		if tc.v {
			db = vDB(t)
		}
		oracle, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		q := &relalg.AQT{Name: tc.name, Root: tc.root}
		reg := obs.NewRegistry()
		eng, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRegistry(reg)
		checkCountAgainstExecute(t, tc.name, oracle, map[string]*Engine{"classic": eng}, nil, q)
		want := int64(1)
		if tc.count {
			want = 0
		}
		if n := reg.Snapshot().Counters["engine_count_materialized_total"]; n != want {
			t.Errorf("%s: engine_count_materialized_total = %d, want %d", tc.name, n, want)
		}
	}
}

// TestCountMemoReuse: a tree counted through a memo leaves its subtrees
// behind, so a copy sharing its parameters — alone, or under an aggregate
// that asks the memo for rows it never counted — scans no table again and
// still reports Execute's Stats.
func TestCountMemoReuse(t *testing.T) {
	db := paperDB(t)
	oracle, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRegistry(reg)
	selS := sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 4)))
	selT := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2)))
	q := &relalg.AQT{Name: "q", Root: join(relalg.EquiJoin, "s", selS, selT, "t", "t_fk")}
	memo := &CountMemo{}
	checkCountAgainstExecute(t, "q", oracle, map[string]*Engine{"classic": eng}, map[string]*CountMemo{"classic": memo}, q)
	windows := reg.Snapshot().Counters["engine_windows_total"]
	if windows == 0 {
		t.Fatal("no table pass ran")
	}
	for _, root := range []*relalg.View{relalg.CloneViewShared(q.Root), agg(relalg.CloneViewShared(q.Root), "t2", "s1")} {
		copied := &relalg.AQT{Name: "copy", Root: root}
		want, err := oracle.Execute(copied, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Count(copied, false, memo)
		if err != nil {
			t.Fatal(err)
		}
		root.Walk(func(v *relalg.View) {
			if got.Stats[v] != want.Stats[v] {
				t.Errorf("%s: counted %+v, Execute %+v", v, got.Stats[v], want.Stats[v])
			}
		})
	}
	if n := reg.Snapshot().Counters["engine_windows_total"]; n != windows {
		t.Errorf("engine_windows_total went %d -> %d: the copies were scanned again", windows, n)
	}
}
