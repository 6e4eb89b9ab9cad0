package engine

// Unit tests of window passes: chain collection must match full-column
// evaluation at every window size (including the 1-row
// pathological window and the clamp edge where the window exceeds the
// table), the whole-column fallback must regenerate unmaterialized columns
// byte-identically, and mid-window faults must surface as typed StageErrors
// carrying the window index.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

// paperT1 is the t1 column of testutil.PaperDB, served through the chunk
// source instead of storage in the windowed fixtures.
var paperT1 = []int64{4, 4, 4, 3, 3, 5, 1, 2}

// mapSource serves columns from full in-memory slices, counting fills per
// (column, window start). Fill may be called concurrently, as a wide table
// pass does.
type mapSource struct {
	cols  map[string][]int64
	mu    sync.Mutex
	fills map[string]int
}

func (s *mapSource) Fill(col string, dst []int64, lo, hi int64) error {
	vals, ok := s.cols[col]
	if !ok {
		return fmt.Errorf("mapSource: no column %s", col)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fills == nil {
		s.fills = make(map[string]int)
	}
	s.fills[fmt.Sprintf("%s@%d", col, lo)]++
	copy(dst, vals[lo:hi])
	return nil
}

// windowedPaperDB is testutil.PaperDB with t1 left unmaterialized — the
// windowed retention policy drops predicate columns — and served by a chunk
// source instead.
func windowedPaperDB() (*storage.DB, *mapSource) {
	db := storage.NewDB(testutil.PaperSchema())
	s := db.Table("s")
	s.SetCol("s1", []int64{1, 2, 3, 4})
	t := db.Table("t")
	t.SetCol("t_fk", []int64{1, 2, 2, 3, 1, 2, 4, 4})
	t.SetCol("t2", []int64{2, 2, 2, 1, 3, 3, 4, 4})
	src := &mapSource{cols: map[string][]int64{"t1": paperT1}}
	return db, src
}

func instParam(v int64) *relalg.Param {
	return &relalg.Param{ID: "p", Orig: v, Value: v, Instantiated: true}
}

// selChainT builds select(t1 > lo) — and optionally select(t2 <= hi2) on
// top — over the t leaf.
func selChainT(lo int64, hi2 int64) *relalg.View {
	leaf := &relalg.View{Kind: relalg.LeafView, Table: "t"}
	sel := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{leaf},
		Pred: &relalg.UnaryPred{Col: "t1", Op: relalg.OpGt, P: instParam(lo)}}
	if hi2 < 0 {
		return sel
	}
	return &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{sel},
		Pred: &relalg.UnaryPred{Col: "t2", Op: relalg.OpLe, P: instParam(hi2)}}
}

// collectSet lists a RowSet's rows in ascending order and checks them
// against its count.
func collectSet(t *testing.T, s *RowSet) []int32 {
	t.Helper()
	rows := s.bits.appendRange(nil, 0, 64*len(s.bits))
	if len(rows) != s.Len() {
		t.Fatalf("row set holds %d rows but counts %d", len(rows), s.Len())
	}
	return rows
}

// collectRowSet asks eng for the one row set of table in v's output.
func collectRowSet(ctx context.Context, eng *Engine, v *relalg.View, table string) (*RowSet, error) {
	sets, err := eng.CollectRowSetsCtx(ctx, []RowSetRequest{{View: v, Table: table}}, false)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// TestWindowedCollectMatchesClassic sweeps window sizes — 1-row
// pathological, sizes that do and don't divide the table, and the clamp
// edge far past the table — and checks every chain shape against classic
// full-column evaluation.
func TestWindowedCollectMatchesClassic(t *testing.T) {
	classic, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*relalg.View{
		"leaf":        {Kind: relalg.LeafView, Table: "t"},
		"one-select":  selChainT(2, -1),
		"two-selects": selChainT(2, 3),
		"empty":       selChainT(99, -1),
	}
	for _, rows := range []int64{1, 3, 8, 1 << 20} {
		db, src := windowedPaperDB()
		eng, err := NewWindowed(db, WindowConfig{Rows: rows, Sources: map[string]ChunkSource{"t": src}})
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range views {
			want, err := classic.CollectRows(v, "t", false)
			if err != nil {
				t.Fatal(err)
			}
			set, err := collectRowSet(context.Background(), eng, v, "t")
			if err != nil {
				t.Fatalf("window=%d %s: %v", rows, name, err)
			}
			got := collectSet(t, set)
			if len(got) != len(want) {
				t.Fatalf("window=%d %s: %d rows, want %d", rows, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window=%d %s: row[%d] = %d, want %d", rows, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWindowedFallbackColumn runs a shape the windowed path cannot stream —
// a selection over a join output — and checks the engine transparently
// regenerates the unmaterialized predicate column whole, matching classic
// evaluation.
func TestWindowedFallbackColumn(t *testing.T) {
	join := &relalg.View{Kind: relalg.JoinView,
		Join:   &relalg.JoinSpec{PKTable: "s", FKTable: "t", FKCol: "t_fk", Type: relalg.EquiJoin},
		Inputs: []*relalg.View{{Kind: relalg.LeafView, Table: "s"}, {Kind: relalg.LeafView, Table: "t"}}}
	sel := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{join},
		Pred: &relalg.UnaryPred{Col: "t1", Op: relalg.OpGt, P: instParam(3)}}

	classic, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	want, err := classic.CollectRows(sel, "t", false)
	if err != nil {
		t.Fatal(err)
	}

	db, src := windowedPaperDB()
	eng, err := NewWindowed(db, WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}})
	if err != nil {
		t.Fatal(err)
	}
	set, err := collectRowSet(context.Background(), eng, sel, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := collectSet(t, set)
	if len(got) != len(want) {
		t.Fatalf("fallback path: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fallback path: row[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if len(eng.win.fallback) == 0 {
		t.Fatal("selection over a join output did not take the whole-column fallback")
	}
}

// TestWindowedFaultStageError injects an error, a panic, and a context
// cancellation mid-evaluation and checks each surfaces as a typed
// StageError at the engine/window stage with the faulted window's index in
// the item field. The fault lands in window 1 of a table pass that feeds one
// chain (a single request) or several (the shared scan of
// sharedScanRequests). A classic engine makes the same passes behind the
// same gate — over materialized columns — so its arm expects the same typed
// errors.
func TestWindowedFaultStageError(t *testing.T) {
	for _, classic := range []bool{false, true} {
		for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
			for _, shared := range []bool{false, true} {
				name := fmt.Sprintf("classic=%v action %v shared=%v", classic, action, shared)
				in := faultinject.New(faultinject.Rule{Stage: WindowStage, Item: 1, Action: action})
				deactivate := faultinject.Activate(in)

				var eng *Engine
				var err error
				if classic {
					if eng, err = New(testutil.PaperDB()); err == nil {
						eng.win.rows = 3 // the 8-row table fits one default window
					}
				} else {
					db, src := windowedPaperDB()
					eng, err = NewWindowed(db, WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}})
				}
				if err != nil {
					deactivate()
					t.Fatal(err)
				}
				reqs := []RowSetRequest{{View: selChainT(1, -1), Table: "t"}}
				if shared {
					reqs, _ = sharedScanRequests()
				}
				_, err = eng.CollectRowSetsCtx(context.Background(), reqs, false)
				deactivate()
				if err == nil {
					t.Fatalf("%s: injected window fault did not fail the collect", name)
				}
				var se *fault.StageError
				if !errors.As(err, &se) || se.Stage != WindowStage || se.Item != 1 {
					t.Fatalf("%s: err = %v, want StageError{%s, 1}", name, err, WindowStage)
				}
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("%s: err = %v, want injection provenance", name, err)
				}
			}
		}

		// Cancellation: the pre-canceled context must fail the very first
		// window with the same typed error shape.
		var eng *Engine
		var err error
		if classic {
			eng, err = New(testutil.PaperDB())
		} else {
			db, src := windowedPaperDB()
			eng, err = NewWindowed(db, WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}})
		}
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = collectRowSet(ctx, eng, selChainT(1, -1), "t")
		var se *fault.StageError
		if !errors.As(err, &se) || se.Stage != WindowStage || se.Item != 0 {
			t.Fatalf("classic=%v cancel: err = %v, want StageError{%s, 0}", classic, err, WindowStage)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("classic=%v cancel: err = %v, want context.Canceled in chain", classic, err)
		}
	}
}

// TestReductionFaultStageError lands the fault in a reduction instead of a
// table pass: s fits one window, so window 1 first occurs while the
// join-shaped request's answer is being reduced from t's rows, a window of
// them already set in the answer. The typed error is the same.
func TestReductionFaultStageError(t *testing.T) {
	for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
		in := faultinject.New(faultinject.Rule{Stage: WindowStage, Item: 1, Action: action})
		deactivateFault := faultinject.Activate(in)
		db, _ := windowedPaperDB()
		eng, err := NewWindowed(db, WindowConfig{Rows: 4})
		if err != nil {
			deactivateFault()
			t.Fatal(err)
		}
		// σ_{s1<4}(s) ⋈ t: s's pass is window 0 only, t is a bare leaf (no
		// pass), and the reduction of t's rows runs windows 0 and 1.
		selS := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{{Kind: relalg.LeafView, Table: "s"}},
			Pred: &relalg.UnaryPred{Col: "s1", Op: relalg.OpLt, P: instParam(4)}}
		join := &relalg.View{Kind: relalg.JoinView,
			Join:   &relalg.JoinSpec{PKTable: "s", FKTable: "t", FKCol: "t_fk", Type: relalg.EquiJoin},
			Inputs: []*relalg.View{selS, {Kind: relalg.LeafView, Table: "t"}}}
		_, err = collectRowSet(context.Background(), eng, join, "t")
		deactivateFault()
		var se *fault.StageError
		if !errors.As(err, &se) || se.Stage != WindowStage || se.Item != 1 || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("action %v: err = %v, want injected StageError{%s, 1}", action, err, WindowStage)
		}
	}
}

// TestWindowedExecuteMatchesClassic runs a full template-shaped tree
// (select → join → select over the join) through Execute on both engines
// and compares every view's stats: Execute has no windowed arm, so the
// windowed engine regenerates the unretained t1 whole (columnData's counted
// fallback) and must report the same cardinalities the classic engine does.
func TestWindowedExecuteMatchesClassic(t *testing.T) {
	build := func() (*relalg.AQT, []*relalg.View) {
		leafS := &relalg.View{Kind: relalg.LeafView, Table: "s"}
		leafT := &relalg.View{Kind: relalg.LeafView, Table: "t"}
		selT := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{leafT},
			Pred: &relalg.UnaryPred{Col: "t1", Op: relalg.OpGt, P: instParam(2)}}
		join := &relalg.View{Kind: relalg.JoinView,
			Join:   &relalg.JoinSpec{PKTable: "s", FKTable: "t", FKCol: "t_fk", Type: relalg.EquiJoin},
			Inputs: []*relalg.View{leafS, selT}}
		selJ := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{join},
			Pred: &relalg.UnaryPred{Col: "s1", Op: relalg.OpLt, P: instParam(4)}}
		return &relalg.AQT{Name: "q", Root: selJ}, []*relalg.View{leafS, leafT, selT, join, selJ}
	}

	classic, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	qc, viewsC := build()
	wantRes, err := classic.Execute(qc, false)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db, src := windowedPaperDB()
	eng, err := NewWindowed(db, WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRegistry(reg)
	qw, viewsW := build()
	gotRes, err := eng.Execute(qw, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viewsC {
		want, got := wantRes.Stats[viewsC[i]], gotRes.Stats[viewsW[i]]
		if want != got {
			t.Errorf("view %d: windowed stats %+v, classic %+v", i, got, want)
		}
	}
	if n := reg.Snapshot().Counters["engine_window_fallbacks_total"]; n != 1 {
		t.Errorf("engine_window_fallbacks_total = %d, want 1 (t1 regenerated whole, once)", n)
	}
}

// TestPrimaryKeyDerivedOnEveryEngine: no engine's database stores a primary
// key, and both kinds read it the same way — a table pass over a predicate
// naming it and a whole-column read (a projection) both see 1..Rows, without
// ever asking a chunk source (the windowed fixture's source has no t_pk).
// Each column read whole is filled once and cached.
func TestPrimaryKeyDerivedOnEveryEngine(t *testing.T) {
	windowedDB, src := windowedPaperDB()
	engines := []struct {
		name string
		db   *storage.DB
		cfg  *WindowConfig
		// whole is the number of columns the projection query reads whole:
		// t_pk, plus t1 where it is regenerated.
		whole int64
	}{
		{"classic", testutil.PaperDB(), nil, 1},
		{"windowed", windowedDB, &WindowConfig{Rows: 3, Sources: map[string]ChunkSource{"t": src}}, 2},
	}
	for _, tc := range engines {
		reg := obs.NewRegistry()
		var eng *Engine
		var err error
		if tc.cfg == nil {
			eng, err = New(tc.db)
		} else {
			eng, err = NewWindowed(tc.db, *tc.cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRegistry(reg)
		leaf := &relalg.View{Kind: relalg.LeafView, Table: "t"}
		set, err := collectRowSet(context.Background(), eng, sel(leaf, unary("t_pk", relalg.OpGt, pv("p", 5))), "t")
		if err != nil {
			t.Fatalf("%s: table pass over t_pk: %v", tc.name, err)
		}
		if got := collectSet(t, set); !slices.Equal(got, []int32{5, 6, 7}) {
			t.Errorf("%s: rows with t_pk > 5 = %v, want [5 6 7]", tc.name, got)
		}
		for range 2 {
			root := proj(sel(leaf, unary("t1", relalg.OpGt, pv("p", 2))), "t", "t_pk")
			res, err := eng.Execute(&relalg.AQT{Name: "q", Root: root}, false)
			if err != nil {
				t.Fatalf("%s: projection on t_pk: %v", tc.name, err)
			}
			if got := res.Stats[root].Card; got != 6 {
				t.Errorf("%s: distinct t_pk over t1 > 2 = %d, want 6", tc.name, got)
			}
		}
		if n := reg.Snapshot().Counters["engine_window_fallbacks_total"]; n != tc.whole {
			t.Errorf("%s: engine_window_fallbacks_total = %d, want %d", tc.name, n, tc.whole)
		}
	}
}

// sharedScanRequests is the multi-request fixture: five chains over t (one
// view requested twice, one two selections deep, one selecting nothing), the
// bare t leaf, and a join-shaped view — asked for both of its tables — whose
// FK-side input is a chain over t that is also requested on its own, and
// whose PK-side input is a chain over s. selects lists every selection view
// in the requests, bottom-up within a chain.
func sharedScanRequests() (reqs []RowSetRequest, selects []*relalg.View) {
	a := selChainT(2, -1)
	b := selChainT(1, 3)
	c := selChainT(99, -1)
	d := selChainT(3, -1)
	selS := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{{Kind: relalg.LeafView, Table: "s"}},
		Pred: &relalg.UnaryPred{Col: "s1", Op: relalg.OpLt, P: instParam(4)}}
	join := &relalg.View{Kind: relalg.JoinView,
		Join:   &relalg.JoinSpec{PKTable: "s", FKTable: "t", FKCol: "t_fk", Type: relalg.EquiJoin},
		Inputs: []*relalg.View{selS, d}}
	reqs = []RowSetRequest{
		{View: a, Table: "t"},
		{View: b, Table: "t"},
		{View: c, Table: "t"},
		{View: a, Table: "t"},
		{View: &relalg.View{Kind: relalg.LeafView, Table: "t"}, Table: "t"},
		{View: join, Table: "t"},
		{View: d, Table: "t"},
		{View: join, Table: "s"},
	}
	return reqs, []*relalg.View{a, b.Inputs[0], b, c, d, selS}
}

// TestCollectRowSetsSharedScan holds the multi-request entry point against
// two oracles — one request per call on a fresh windowed engine, and
// CollectRows, the materializing definition, per request — at window sizes
// 1, 3 and far past the table: same row sets (the join-shaped requests' by
// reduction), same per-selection survivor counts; and a classic engine given
// the same requests in one call answers the same. A chain requested twice is
// answered by one set. The counting chunk source then proves the point of
// the shared scan: however many chains read a column, each (column, window)
// of a table is filled exactly once per call.
func TestCollectRowSetsSharedScan(t *testing.T) {
	oracle, err := New(testutil.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int64{1, 3, 1 << 20} {
		name := fmt.Sprintf("window=%d", rows)
		newEngine := func() (*Engine, *mapSource) {
			db := storage.NewDB(testutil.PaperSchema())
			db.Table("t").SetCol("t_fk", []int64{1, 2, 2, 3, 1, 2, 4, 4})
			src := &mapSource{cols: map[string][]int64{
				"s1": {1, 2, 3, 4}, "t1": paperT1, "t2": {2, 2, 2, 1, 3, 3, 4, 4},
			}}
			eng, err := NewWindowed(db, WindowConfig{Rows: rows, Sources: map[string]ChunkSource{"s": src, "t": src}})
			if err != nil {
				t.Fatal(err)
			}
			return eng, src
		}

		reqs, selects := sharedScanRequests()
		eng, src := newEngine()
		res := &Result{Stats: make(map[*relalg.View]Stats)}
		sets, err := eng.collectRowSets(context.Background(), reqs, false, res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(eng.win.fallback) != 0 {
			t.Fatalf("%s: shared scan fell back to whole columns %v", name, eng.win.fallback)
		}
		fills := src.fills
		if sets[0] != sets[3] {
			t.Fatalf("%s: the chain requested twice got two sets", name)
		}

		classic, err := New(testutil.PaperDB())
		if err != nil {
			t.Fatal(err)
		}
		classic.win.rows = int(rows)
		classicRes := &Result{Stats: make(map[*relalg.View]Stats)}
		classicSets, err := classic.collectRowSets(context.Background(), reqs, false, classicRes)
		if err != nil {
			t.Fatalf("%s: classic engine: %v", name, err)
		}

		wantRes := &Result{Stats: make(map[*relalg.View]Stats)}
		for i, rq := range reqs {
			got := collectSet(t, sets[i])
			wantSet, err := oracle.collectRows(rq.View, rq.Table, false, wantRes)
			if err != nil {
				t.Fatal(err)
			}
			want := collectSet(t, wantSet)
			if onClassic := collectSet(t, classicSets[i]); fmt.Sprint(onClassic) != fmt.Sprint(want) {
				t.Errorf("%s request %d: classic engine %v, CollectRows %v", name, i, onClassic, want)
			}
			single, _ := newEngine()
			set, err := collectRowSet(context.Background(), single, rq.View, rq.Table)
			if err != nil {
				t.Fatalf("%s request %d alone: %v", name, i, err)
			}
			alone := collectSet(t, set)
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(alone) != fmt.Sprint(want) {
				t.Errorf("%s request %d: shared scan %v, alone %v, CollectRows %v", name, i, got, alone, want)
			}
		}
		for i, v := range selects {
			if res.Stats[v] != wantRes.Stats[v] || classicRes.Stats[v] != wantRes.Stats[v] {
				t.Errorf("%s selection %d (%s): shared scan counted %+v, classic engine %+v, eval %+v", name, i, v.Pred, res.Stats[v], classicRes.Stats[v], wantRes.Stats[v])
			}
		}

		// One fill per (column, window) per table pass: t's pass reads t1
		// and t2 for five chains, s's pass reads s1 for one.
		windows := func(n int64) int64 { return (n + min(rows, n) - 1) / min(rows, n) }
		if want := int(2*windows(8) + windows(4)); len(fills) != want {
			t.Errorf("%s: %d distinct (column, window) fills, want %d: %v", name, len(fills), want, fills)
		}
		for key, n := range fills {
			if n != 1 {
				t.Errorf("%s: %s filled %d times in one call", name, key, n)
			}
		}
	}
}
