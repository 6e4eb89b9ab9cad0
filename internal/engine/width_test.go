package engine

// Tests of wide row-set collection (SetWidth): a CollectRowSetsCtx call whose
// windows and reduction blocks run on several goroutines must return the row
// sets and record the Stats the one-goroutine call does, and must report a
// failing window — injected fault, panic or cancellation — exactly as that
// call would: a StageError carrying the lowest failing window's index, no
// window past it started, no torn spill file.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

// TestCollectRowSetsWidthInvariant draws random schemas, random join trees
// over them, a chain and a bare leaf, and collects every table of every view
// in one call at widths 1–4 on a classic engine and on windowed ones with and
// without spilling, at a random window size: sets from table passes, from
// reductions over dense (bare leaf), in-memory and spilled sources must be
// equal at every width, and so must every recorded Stats entry.
func TestCollectRowSetsWidthInvariant(t *testing.T) {
	wide, spilled := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := newRandSchema(rng)
		var reqs []RowSetRequest
		for k := 0; k < 3; k++ {
			v := rs.randJoinTree(rng, rs.randTables(rng))
			for _, table := range viewTables(v) {
				reqs = append(reqs, RowSetRequest{View: v, Table: table})
			}
		}
		i := rng.Intn(len(rs.schema.Tables))
		reqs = append(reqs,
			RowSetRequest{View: rs.randChain(rng, i), Table: tableName(i)},
			RowSetRequest{View: leaf(tableName(i)), Table: tableName(i)})
		rows := 1 + rng.Intn(12)
		for _, kind := range []string{"classic", "windowed", "windowed spill=1"} {
			var want [][]int32
			var wantStats map[*relalg.View]Stats
			for width := 1; width <= 4; width++ {
				name := fmt.Sprintf("seed %d %s window=%d width=%d", seed, kind, rows, width)
				var eng *Engine
				var err error
				if kind == "classic" {
					db, _ := rs.db(true)
					if eng, err = New(db); err == nil {
						eng.win.rows = rows
					}
				} else {
					db, sources := rs.db(false)
					spill := -1
					if strings.HasSuffix(kind, "spill=1") {
						spill = 1
					}
					eng, err = NewWindowed(db, WindowConfig{Rows: int64(rows), Sources: sources, SpillDir: t.TempDir(), SpillRows: spill})
				}
				if err != nil {
					t.Fatal(err)
				}
				eng.SetWidth(width)
				res := &Result{Stats: make(map[*relalg.View]Stats)}
				sets, err := eng.collectRowSets(context.Background(), reqs, false, res)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make([][]int32, len(sets))
				for k, set := range sets {
					if set.path != "" {
						spilled++
					}
					if set.Len() > rows {
						wide++
					}
					got[k] = collectSet(t, set)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if width == 1 {
					want, wantStats = got, res.Stats
					continue
				}
				for k := range want {
					if !slices.Equal(got[k], want[k]) {
						t.Errorf("%s: rows of %s = %v, width 1 says %v", name, reqs[k].Table, got[k], want[k])
					}
				}
				if !maps.Equal(res.Stats, wantStats) {
					t.Errorf("%s: stats differ from width 1:\n%v\n%v", name, res.Stats, wantStats)
				}
			}
		}
	}
	if wide == 0 || spilled == 0 {
		t.Fatalf("%d sets span several windows, %d spilled: the draw exercises neither", wide, spilled)
	}
}

// wideEngine returns an engine over the paper database evaluating 1-row
// windows two at a time — t's pass is eight windows, four rounds — and the
// chunk source serving t1 (nil on a classic engine).
func wideEngine(t *testing.T, classic bool, dir string) (*Engine, *mapSource) {
	t.Helper()
	var eng *Engine
	var src *mapSource
	var err error
	if classic {
		if eng, err = New(testutil.PaperDB()); err == nil {
			eng.win.rows = 1
		}
	} else {
		var db *storage.DB
		db, src = windowedPaperDB()
		eng, err = NewWindowed(db, WindowConfig{Rows: 1, Sources: map[string]ChunkSource{"t": src}, SpillDir: dir, SpillRows: 1})
	}
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWidth(2)
	return eng, src
}

// checkWindowError requires err to be a WindowStage StageError at item wi
// with cause in its chain, and dir and the engine's ledger free of spill
// files.
func checkWindowError(t *testing.T, name string, eng *Engine, dir string, err error, wi int, cause error) {
	t.Helper()
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != WindowStage || se.Item != wi || !errors.Is(err, cause) {
		t.Fatalf("%s: err = %v, want StageError{%s, %d} caused by %v", name, err, WindowStage, wi, cause)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 || len(eng.win.spills) != 0 {
		t.Fatalf("%s: torn spill files left behind: %v / %v", name, ents, eng.win.spills)
	}
}

// TestWideWindowFault injects an error or a panic at every window of a width-2
// table pass, then at two windows of one round, then in a width-2 reduction,
// and cancels mid-pass. Windows are gated in order before their round runs,
// so every failure is reported where it is at width 1.
func TestWideWindowFault(t *testing.T) {
	for _, classic := range []bool{false, true} {
		for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
			for wi := 0; wi < 8; wi++ {
				name := fmt.Sprintf("classic=%v %v at window %d", classic, action, wi)
				dir := t.TempDir()
				eng, _ := wideEngine(t, classic, dir)
				deactivate := faultinject.Activate(faultinject.New(faultinject.Rule{Stage: WindowStage, Item: wi, Action: action}))
				_, err := eng.CollectRowSetCtx(context.Background(), selChainT(1, -1), "t", false)
				deactivate()
				checkWindowError(t, name, eng, dir, err, wi, faultinject.ErrInjected)
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Windows 2 and 3 share a round and both are armed: the lower is
		// reported.
		dir := t.TempDir()
		eng, _ := wideEngine(t, classic, dir)
		deactivate := faultinject.Activate(faultinject.New(
			faultinject.Rule{Stage: WindowStage, Item: 3, Action: faultinject.Panic},
			faultinject.Rule{Stage: WindowStage, Item: 2, Action: faultinject.Error}))
		_, err := eng.CollectRowSetCtx(context.Background(), selChainT(1, -1), "t", false)
		deactivate()
		checkWindowError(t, fmt.Sprintf("classic=%v two faults in one round", classic), eng, dir, err, 2, faultinject.ErrInjected)
		eng.Close()
	}

	// A reduction: s fits one 4-row window, so item 1 first occurs in the
	// reduction of t's rows, in the same round as its window 0.
	for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
		dir := t.TempDir()
		db, _ := windowedPaperDB()
		eng, err := NewWindowed(db, WindowConfig{Rows: 4, SpillDir: dir, SpillRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetWidth(2)
		selS := &relalg.View{Kind: relalg.SelectView, Inputs: []*relalg.View{{Kind: relalg.LeafView, Table: "s"}},
			Pred: &relalg.UnaryPred{Col: "s1", Op: relalg.OpLt, P: instParam(4)}}
		join := &relalg.View{Kind: relalg.JoinView,
			Join:   &relalg.JoinSpec{PKTable: "s", FKTable: "t", FKCol: "t_fk", Type: relalg.EquiJoin},
			Inputs: []*relalg.View{selS, {Kind: relalg.LeafView, Table: "t"}}}
		deactivate := faultinject.Activate(faultinject.New(faultinject.Rule{Stage: WindowStage, Item: 1, Action: action}))
		_, err = eng.CollectRowSetCtx(context.Background(), join, "t", false)
		deactivate()
		checkWindowError(t, fmt.Sprintf("reduction %v", action), eng, dir, err, 1, faultinject.ErrInjected)
		eng.Close()
	}

	// Cancellation at window 2 fails that window before its round starts:
	// windows 0 and 1 ran, nothing from 2 on did.
	reg := obs.NewRegistry()
	dir := t.TempDir()
	eng, src := wideEngine(t, false, dir)
	defer eng.Close()
	eng.SetRegistry(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(faultinject.Rule{Stage: WindowStage, Item: 2, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	deactivate := faultinject.Activate(in)
	_, err := eng.CollectRowSetCtx(ctx, selChainT(1, -1), "t", false)
	deactivate()
	checkWindowError(t, "cancel at window 2", eng, dir, err, 2, context.Canceled)
	if n := reg.Snapshot().Counters["engine_windows_total"]; n != 2 {
		t.Fatalf("cancel at window 2: %d windows evaluated, want windows 0 and 1", n)
	}
	if len(src.fills) != 2 || src.fills["t1@0"] != 1 || src.fills["t1@1"] != 1 {
		t.Fatalf("cancel at window 2: fills %v, want windows 0 and 1 only", src.fills)
	}
}

// TestOrMasks folds dense, in-memory, spilled and empty row sets into masks
// that span several chunks (the last one partial) at widths 1–4 and compares
// with a row-by-row fold.
func TestOrMasks(t *testing.T) {
	n := 3*maskChunkRows + 123
	rng := rand.New(rand.NewSource(7))
	draw := func(p float64) []int32 {
		var rows []int32
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				rows = append(rows, int32(r))
			}
		}
		return rows
	}
	win := newWindowState(WindowConfig{SpillDir: t.TempDir(), SpillRows: 1})
	spilled := func(rows []int32) *RowSet {
		acc := &rowAccum{win: win, limit: win.spillAt}
		if err := acc.add(rows); err != nil {
			t.Fatal(err)
		}
		s, err := acc.finish()
		if err != nil {
			t.Fatal(err)
		}
		if s.path == "" {
			t.Fatal("set did not spill")
		}
		return s
	}
	memRows := [][]int32{draw(0.3), draw(0.001), draw(0.9)}
	spillRows := draw(0.5)
	want := make([]uint64, n)
	for r := 0; r < n; r++ {
		want[r] |= 1 // the whole table, dense
		if r < maskChunkRows+5 {
			want[r] |= 2 // a dense prefix ending inside a chunk
		}
	}
	for k, rows := range append(memRows, spillRows) {
		for _, r := range rows {
			want[r] |= 4 << uint(k)
		}
	}
	for width := 1; width <= 4; width++ {
		sets := []*RowSet{{n: n, dense: true}, {n: maskChunkRows + 5, dense: true}}
		bits := []uint64{1, 2}
		for k, rows := range memRows {
			sets = append(sets, &RowSet{mem: rows, n: len(rows)})
			bits = append(bits, 4<<uint(k))
		}
		sets = append(sets, spilled(spillRows), &RowSet{})
		bits = append(bits, 4<<uint(len(memRows)), 1<<40)
		got := make([]uint64, n)
		if err := OrMasks(got, sets, bits, width); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("width %d: mask of row %d = %#b, want %#b", width, r, got[r], want[r])
				}
			}
		}
		for _, s := range sets {
			s.Release()
		}
	}
}
