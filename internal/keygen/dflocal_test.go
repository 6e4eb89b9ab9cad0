package keygen

import (
	"context"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// webshopLikeDB builds a two-table instance where two JDC joins see disjoint
// row sets of the referencing table — the case where fresh-key budgets must
// be scoped per connected component rather than per partition (a user can
// have both a cancelled and a pending order, so the two joins' distinct
// counts may each approach |users| independently).
func webshopLikeDB(t *testing.T) (*storage.DB, *genplan.Problem) {
	t.Helper()
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "users", Rows: 100, Columns: []relalg.Column{
			{Name: "u_pk", Kind: relalg.PrimaryKey},
			{Name: "u_x", Kind: relalg.NonKey, DomainSize: 2},
		}},
		{Name: "orders", Rows: 1000, Columns: []relalg.Column{
			{Name: "o_pk", Kind: relalg.PrimaryKey},
			{Name: "o_user", Kind: relalg.ForeignKey, Refs: "users"},
			{Name: "o_status", Kind: relalg.NonKey, DomainSize: 4},
		}},
	}}
	db := storage.NewDB(schema)
	u := db.Table("users")
	ux := make([]int64, 100)
	for i := range ux {
		ux[i] = int64(i%2 + 1)
	}
	u.SetCol("u_x", ux)
	o := db.Table("orders")
	status := make([]int64, 1000)
	for i := range status {
		status[i] = int64(i%4 + 1)
	}
	o.SetCol("o_status", status)

	selStatus := func(val int64) *relalg.View {
		return sel(leaf("orders"), unary("o_status", relalg.OpEq, pv("p", val)))
	}
	// Both joins demand ~90 distinct users each: combined demand 180 > 100
	// users, feasible only with component-scoped budgets.
	j1 := &genplan.JoinCons{
		ID: 0, Query: "a",
		Spec:     relalg.JoinSpec{Type: relalg.LeftSemiJoin, PKTable: "users", FKTable: "orders", FKCol: "o_user"},
		LeftView: leaf("users"), RightView: selStatus(1),
		JCC: relalg.CardUnknown, JDC: 90,
	}
	j2 := &genplan.JoinCons{
		ID: 1, Query: "b",
		Spec:     relalg.JoinSpec{Type: relalg.LeftSemiJoin, PKTable: "users", FKTable: "orders", FKCol: "o_user"},
		LeftView: leaf("users"), RightView: selStatus(2),
		JCC: relalg.CardUnknown, JDC: 85,
	}
	unit := &genplan.Unit{Table: "orders", FKCol: "o_user", Joins: []*genplan.JoinCons{j1, j2}}
	return db, &genplan.Problem{Schema: schema, Units: []*genplan.Unit{unit}}
}

func TestComponentScopedKeyBudgets(t *testing.T) {
	db, prob := webshopLikeDB(t)
	checkTwoPhase(t, unitModel(t, db, prob.Units[0].Joins), Config{Seed: 4})
	st, err := Populate(context.Background(), Config{Seed: 4}, prob, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resized != 0 {
		t.Fatalf("resized = %d; the combined 175-distinct demand must fit via component budgets", st.Resized)
	}
	for _, jc := range prob.Units[0].Joins {
		checkJoin(t, db, jc)
	}
}

func TestOverlappingClassesShareBudget(t *testing.T) {
	// When the two joins' right views overlap (same rows), their classes
	// connect and the budget is shared: a combined demand beyond |users|
	// must be resized, not silently met.
	db, prob := webshopLikeDB(t)
	j := prob.Units[0].Joins
	// Same right view for both joins: o_status = 1.
	j[1].RightView = sel(leaf("orders"), unary("o_status", relalg.OpEq, pv("p", 1)))
	j[0].JDC = 90
	j[1].JDC = 80
	st, err := Populate(context.Background(), Config{Seed: 4}, prob, db)
	if err != nil {
		t.Fatal(err)
	}
	// Identical views with different JDCs are contradictory: one constraint
	// must give (recorded as a resize) — both cannot hold on one fk stream.
	if st.Resized == 0 {
		t.Fatal("contradictory overlapping JDCs must be recorded as resized")
	}
}

func TestComponentsOf(t *testing.T) {
	m := componentsOf([]uint64{0b001, 0b010, 0b110})
	if m[0b001] == m[0b010] {
		t.Error("disjoint masks 001 and 010 must land in different components")
	}
	if m[0b010] != m[0b110] {
		t.Error("overlapping masks 010 and 110 must share a component")
	}
}

// TestAllocateKeysScopesComponentsLikeDF: allocateKeys carves key blocks
// over the components solveDFLocal budgets by, those of the active classes.
// One S row feeds two joins through cells with masks 01 and 10 (x = 1 each);
// a third cell with mask 11 gets no rows (x = 0). DF gives each class the
// row's one key, because the classes share no join; the empty cell must not
// merge them into one component whose single key cannot serve both blocks.
func TestAllocateKeysScopesComponentsLikeDF(t *testing.T) {
	sParts := []*part{{mask: 0b11, rows: []int32{0}}}
	tParts := []*part{{mask: 0b01, rows: []int32{0}}, {mask: 0b10, rows: []int32{1}}, {mask: 0b11, rows: []int32{2}}}
	kg := buildModel(make([]*genplan.JoinCons, 2), sParts, tParts, []int64{1, 1}, []int64{1, 1})
	sol, residual := kg.solveDFLocal([]int64{1, 1, 0})
	if residual != 0 || !slices.Equal(sol.f, []int64{1, 1, 0}) {
		t.Fatalf("DF: f = %v with %d residual joins, want [1 1 0] and none", sol.f, residual)
	}
	keys, err := allocateKeys(kg, sol)
	if err != nil {
		t.Fatalf("allocateKeys refused what DF budgeted: %v", err)
	}
	for ci, want := range [][]int64{{1}, {1}, nil} {
		if !slices.Equal(keys[ci], want) {
			t.Errorf("cell %d: keys %v, want %v", ci, keys[ci], want)
		}
	}
}

// TestPopulateManyJoinsStaysFast guards against search blow-ups: a unit with
// a dozen random joins must populate in well under a second.
func TestPopulateManyJoinsStaysFast(t *testing.T) {
	schema := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "dim", Rows: 200, Columns: []relalg.Column{
			{Name: "d_pk", Kind: relalg.PrimaryKey},
			{Name: "d_a", Kind: relalg.NonKey, DomainSize: 10},
		}},
		{Name: "fact", Rows: 5000, Columns: []relalg.Column{
			{Name: "f_pk", Kind: relalg.PrimaryKey},
			{Name: "f_dim", Kind: relalg.ForeignKey, Refs: "dim"},
			{Name: "f_b", Kind: relalg.NonKey, DomainSize: 20},
		}},
	}}
	db := storage.NewDB(schema)
	d := db.Table("dim")
	da := make([]int64, 200)
	for i := range da {
		da[i] = int64(i%10 + 1)
	}
	d.SetCol("d_a", da)
	f := db.Table("fact")
	fb := make([]int64, 5000)
	for i := range fb {
		fb[i] = int64(i%20 + 1)
	}
	f.SetCol("f_b", fb)
	// Derive 12 joins with consistent constraints from a witness: populate
	// uniformly first, measure, then demand exactly those numbers.
	tmp := make([]int64, 5000)
	for i := range tmp {
		tmp[i] = int64(i%200 + 1)
	}
	f.SetCol("f_dim", tmp)
	eng, err := engine.New(db)
	if err != nil {
		t.Fatal(err)
	}
	var joins []*genplan.JoinCons
	for k := 0; k < 12; k++ {
		l := sel(leaf("dim"), unary("d_a", relalg.OpLe, pv("pl", int64(k%10+1))))
		r := sel(leaf("fact"), unary("f_b", relalg.OpGt, pv("pr", int64(k%15+1))))
		root := &relalg.View{
			Kind:   relalg.JoinView,
			Join:   &relalg.JoinSpec{Type: relalg.EquiJoin, PKTable: "dim", FKTable: "fact", FKCol: "f_dim"},
			Inputs: []*relalg.View{l, r},
			Card:   relalg.CardUnknown, JCC: relalg.CardUnknown, JDC: relalg.CardUnknown,
		}
		res, err := eng.Execute(&relalg.AQT{Name: "w", Root: root}, false)
		if err != nil {
			t.Fatal(err)
		}
		joins = append(joins, &genplan.JoinCons{
			ID: k, Query: "w",
			Spec:     *root.Join,
			LeftView: l, RightView: r,
			JCC: res.Stats[root].JCC, JDC: relalg.CardUnknown,
		})
	}
	f.SetCol("f_dim", nil)
	prob := &genplan.Problem{Schema: schema, Units: []*genplan.Unit{{Table: "fact", FKCol: "f_dim", Joins: joins}}}
	st, err := Populate(context.Background(), Config{Seed: 8}, prob, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resized != 0 {
		t.Fatalf("witness-derived constraints must be met exactly; resized = %d", st.Resized)
	}
	for _, jc := range joins {
		checkJoin(t, db, jc)
	}
}
