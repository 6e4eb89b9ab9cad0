package engine

// Tests of wide row-set collection (SetWidth): a CollectRowSetsCtx call whose
// pass and reduction windows run on several goroutines must return the row
// sets and record the Stats the one-goroutine call does, and must report a
// failing window — injected fault, panic or cancellation — exactly as that
// call would: a StageError carrying the lowest failing window's index, no
// window past it started.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
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
// in one call at widths 1–4 on a classic engine and on a windowed one, at a
// random window size: sets from table passes and from reductions over full
// (bare leaf) and chain sources must be equal at every width, and so must
// every recorded Stats entry.
func TestCollectRowSetsWidthInvariant(t *testing.T) {
	wide := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := newRandSchema(rng)
		var reqs []RowSetRequest
		for k := 0; k < 3; k++ {
			v := rs.randJoinTree(rng, rs.randTables(rng), false)
			for _, table := range viewTables(v) {
				reqs = append(reqs, RowSetRequest{View: v, Table: table})
			}
		}
		i := rng.Intn(len(rs.schema.Tables))
		reqs = append(reqs,
			RowSetRequest{View: rs.randChain(rng, i), Table: tableName(i)},
			RowSetRequest{View: leaf(tableName(i)), Table: tableName(i)})
		rows := 1 + rng.Intn(12)
		for _, kind := range []string{"classic", "windowed"} {
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
					eng, err = NewWindowed(db, WindowConfig{Rows: int64(rows), Sources: sources})
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
					if set.Len() > rows {
						wide++
					}
					got[k] = collectSet(t, set)
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
	if wide == 0 {
		t.Fatal("no set spans several windows: the draw does not exercise wide passes")
	}
}

// wideEngine returns an engine over the paper database evaluating 1-row
// windows on two workers — t's pass is eight windows — and the
// chunk source serving t1 (nil on a classic engine).
func wideEngine(t *testing.T, classic bool) (*Engine, *mapSource) {
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
		eng, err = NewWindowed(db, WindowConfig{Rows: 1, Sources: map[string]ChunkSource{"t": src}})
	}
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWidth(2)
	return eng, src
}

// checkWindowError requires err to be a WindowStage StageError at item wi
// with cause in its chain.
func checkWindowError(t *testing.T, name string, err error, wi int, cause error) {
	t.Helper()
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != WindowStage || se.Item != wi || !errors.Is(err, cause) {
		t.Fatalf("%s: err = %v, want StageError{%s, %d} caused by %v", name, err, WindowStage, wi, cause)
	}
}

// TestWideWindowFault injects an error or a panic at every window of a width-2
// table pass, then at two windows in flight together, then in a width-2
// reduction, and cancels mid-pass. Windows are gated in order before a
// worker takes them, so every failure is reported where it is at width 1.
func TestWideWindowFault(t *testing.T) {
	for _, classic := range []bool{false, true} {
		for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
			for wi := 0; wi < 8; wi++ {
				name := fmt.Sprintf("classic=%v %v at window %d", classic, action, wi)
				eng, _ := wideEngine(t, classic)
				deactivate := faultinject.Activate(faultinject.New(faultinject.Rule{Stage: WindowStage, Item: wi, Action: action}))
				_, err := collectRowSet(context.Background(), eng, selChainT(1, -1), "t")
				deactivate()
				checkWindowError(t, name, err, wi, faultinject.ErrInjected)
			}
		}

		// Windows 2 and 3 run together and both are armed: the lower is
		// reported.
		eng, _ := wideEngine(t, classic)
		deactivate := faultinject.Activate(faultinject.New(
			faultinject.Rule{Stage: WindowStage, Item: 3, Action: faultinject.Panic},
			faultinject.Rule{Stage: WindowStage, Item: 2, Action: faultinject.Error}))
		_, err := collectRowSet(context.Background(), eng, selChainT(1, -1), "t")
		deactivate()
		checkWindowError(t, fmt.Sprintf("classic=%v two faults in one round", classic), err, 2, faultinject.ErrInjected)
	}

	// A reduction: s fits one 4-row window, so item 1 first occurs in the
	// reduction of t's rows, in flight with its window 0.
	for _, action := range []faultinject.Action{faultinject.Error, faultinject.Panic} {
		db, _ := windowedPaperDB()
		eng, err := NewWindowed(db, WindowConfig{Rows: 4})
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
		_, err = collectRowSet(context.Background(), eng, join, "t")
		deactivate()
		checkWindowError(t, fmt.Sprintf("reduction %v", action), err, 1, faultinject.ErrInjected)
	}

	// Cancellation at window 2 fails that window before a worker takes it:
	// windows 0 and 1 ran, nothing from 2 on did.
	reg := obs.NewRegistry()
	eng, src := wideEngine(t, false)
	eng.SetRegistry(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(faultinject.Rule{Stage: WindowStage, Item: 2, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	deactivate := faultinject.Activate(in)
	_, err := collectRowSet(ctx, eng, selChainT(1, -1), "t")
	deactivate()
	checkWindowError(t, "cancel at window 2", err, 2, context.Canceled)
	if n := reg.Snapshot().Counters[`parallel_items_total{stage="engine/window"}`]; n != 2 {
		t.Fatalf("cancel at window 2: %d windows evaluated, want windows 0 and 1", n)
	}
	if len(src.fills) != 2 || src.fills["t1@0"] != 1 || src.fills["t1@1"] != 1 {
		t.Fatalf("cancel at window 2: fills %v, want windows 0 and 1 only", src.fills)
	}
}

// TestOrMasks folds row sets made of all-ones, partial and empty words — the
// whole table, a prefix ending inside a word and a chunk, random sets of
// several densities and an empty one — over a table whose row count is no
// multiple of 64 and spans several chunks, at widths 1–4, and compares with a
// row-by-row fold.
func TestOrMasks(t *testing.T) {
	n := 3*maskChunkRows + 123
	rng := rand.New(rand.NewSource(7))
	prefix := newBitset(n)
	for r := 0; r < maskChunkRows+5; r++ {
		prefix.set(r)
	}
	sets := []*RowSet{fullRowSet(n), {bits: prefix, n: maskChunkRows + 5}}
	for _, p := range []float64{0.3, 0.001, 0.9, 0.999, 0} {
		b := newBitset(n)
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				b.set(r)
			}
		}
		sets = append(sets, &RowSet{bits: b, n: b.count()})
	}
	bits := make([]uint64, len(sets))
	want := make([]uint64, n)
	for k, s := range sets {
		bits[k] = 1 << uint(3*k)
		for r := 0; r < n; r++ {
			if s.bits.test(r) {
				want[r] |= bits[k]
			}
		}
	}
	full := 0
	for _, w := range sets[5].bits {
		if w == ^uint64(0) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("the densest random set has no all-ones word")
	}
	for width := 1; width <= 4; width++ {
		got := make([]uint64, n)
		if err := OrMasks(context.Background(), got, sets, bits, width); err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("width %d: mask of row %d = %#b, want %#b", width, r, got[r], want[r])
			}
		}
	}
}

// TestOrMasksCancel: a cancel landing on chunk 1 of a four-chunk fold
// comes back as a wrapped context.Canceled from stage engine/masks, the
// chunks after it are never folded, and the chunks that ran are counted in
// the registry on the context.
func TestOrMasksCancel(t *testing.T) {
	n := 3*maskChunkRows + 123
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	in := faultinject.New(faultinject.Rule{Stage: "engine/masks", Item: 1, Action: faultinject.Cancel})
	in.BindCancel(cancel)
	deactivate := faultinject.Activate(in)
	masks := make([]uint64, n)
	err := OrMasks(ctx, masks, []*RowSet{fullRowSet(n)}, []uint64{1}, 1)
	deactivate()
	var se *fault.StageError
	if !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Stage != "engine/masks" {
		t.Fatalf("err = %v, want a StageError at engine/masks wrapping context.Canceled", err)
	}
	if masks[2*maskChunkRows] != 0 || masks[n-1] != 0 {
		t.Fatal("chunks after the cancel were folded")
	}
	if got := reg.CounterL("parallel_items_total", "stage", "engine/masks").Value(); got != 2 {
		t.Fatalf("parallel_items_total{stage=engine/masks} = %d, want the 2 chunks that ran", got)
	}
}

// TestBitsetAppendRange lists random ranges of sets with all-ones, partial
// and empty words and compares with a bit-by-bit walk.
func TestBitsetAppendRange(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(3))
	for _, p := range []float64{0, 0.05, 0.5, 0.99, 1} {
		b := newBitset(n)
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				b.set(r)
			}
		}
		for i := 0; i < 200; i++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			var want []int32
			for r := lo; r < hi; r++ {
				if b.test(r) {
					want = append(want, int32(r))
				}
			}
			if got := b.appendRange(nil, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("p=%v [%d,%d): %v, want %v", p, lo, hi, got, want)
			}
		}
	}
	if got := fullBitset(n).count(); got != n {
		t.Fatalf("fullBitset(%d) has %d bits set", n, got)
	}
}
