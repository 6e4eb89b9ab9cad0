package engine

// Window passes: how every engine answers CollectRowSetsCtx, and the
// out-of-core mode of the engine. Selection chains evaluate over [lo,hi) row
// windows of their base table, one pass per table for all of its chains: a
// column that is materialized in storage is bound whole and read in place
// through the window's row indices, any other is regenerated chunk by chunk
// through the table's ChunkSource (the same regeneration path
// storage.RowSource.Fill uses for export), and only the surviving row
// indices accumulate — spilling to disk past a threshold on a windowed
// engine. A classic engine (New) has every non-key and foreign-key column
// stored, so its passes copy nothing but a primary key a predicate names
// (storage derives it) and never spill; a windowed engine (NewWindowed) lets
// the streaming pipeline retain only keygen's working set. The produced row
// sets, relations, and statistics are identical to full-column evaluation;
// only residency changes. See DESIGN.md §12.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// DefaultWindowRows is the default evaluation window: large enough that
// per-window fill and bind overhead is amortized, small enough that one
// window of every referenced column is a few megabytes.
const DefaultWindowRows = 64 * 1024

// DefaultSpillRows is the row-set size above which a collected view output
// spills to disk (4 MB of int32 per set at the default).
const DefaultSpillRows = 1 << 20

// WindowStage is the stage name per-window failures (context cancellation,
// injected faults, contained panics) are reported under; the StageError's
// Item is the window index.
const WindowStage = "engine/window"

// ChunkSource regenerates any [lo,hi) chunk of one table's columns on
// demand. It is the engine-side twin of storage.RowSource: the out-of-core
// pipeline wires nonkey.PlanSource (retained columns copied, everything
// else regenerated from the column layouts) into both.
type ChunkSource interface {
	Fill(col string, dst []int64, lo, hi int64) error
}

// WindowConfig configures a windowed engine.
type WindowConfig struct {
	// Rows is the window size in table rows (0 = DefaultWindowRows). The
	// window is clamped to the table, so any positive value is valid.
	Rows int64
	// Sources maps table name -> chunk regenerator for columns not resident
	// in storage. Materialized columns are read from storage directly and
	// never consult the source.
	Sources map[string]ChunkSource
	// SpillDir is where large row sets spill ("" = a private temp directory
	// created lazily and removed by Close).
	SpillDir string
	// SpillRows is the spill threshold in rows (0 = DefaultSpillRows;
	// negative disables spilling).
	SpillRows int
}

// windowMetrics are the obs handles of the windowed path; nil handles (obs
// disabled) make every recording a no-op.
type windowMetrics struct {
	windows    *obs.Counter
	winRows    *obs.Histogram
	spillFiles *obs.Counter
	spillBytes *obs.Counter
	fallbacks  *obs.Counter
	events     *obs.Journal
}

// windowState is the per-engine table-pass state: configuration, reusable
// window scratch, and the ledger of outstanding spill files. Like the rest
// of the engine it is single-goroutine.
type windowState struct {
	cfg     WindowConfig
	rows    int // resolved window size
	spillAt int // resolved spill threshold; -1 = never spill
	// ctx is the context of the CollectRowSetsCtx call in flight; window
	// gates poll it so cancellation lands mid-evaluation, not only at the
	// next unit boundary.
	ctx context.Context
	// Window scratch, sized once per engine: one chunk buffer per regenerated
	// column, the window's candidate rows as table row indices (rowBuf) and
	// as window-local offsets into the chunk buffers (idxBuf), the selection
	// vector and the survivors' row indices. Bound predicates hold the slice
	// headers of the first three across windows, so they are refilled in
	// place, never resliced.
	chunkBuf [][]int64
	rowBuf   []int32
	idxBuf   []int32
	selWin   []int32
	outBuf   []int32
	colBuf   []string
	// stage is where a reduction's answer accumulates before it is sealed
	// exact-size (see reduce.go); reused from request to request.
	stage []int32
	// spillBuf is the one byte buffer spilled rows are encoded and decoded
	// through, a block at a time.
	spillBuf []byte
	// fallback caches whole columns materialized for reads outside a table
	// pass (columnData) — a correctness net, counted so regressions are
	// visible.
	fallback map[string][]int64
	spillDir string
	ownDir   bool
	spills   map[string]bool
	m        windowMetrics
}

// NewWindowed builds an engine whose table passes pull unmaterialized
// columns through cfg.Sources, a window at a time, and spill large row sets.
// Everything else behaves exactly like New — Execute regenerates a column it
// needs whole (columnData's counted fallback) — and generated row sets and
// stats are identical. Callers must Close the engine to release spill files.
func NewWindowed(db *storage.DB, cfg WindowConfig) (*Engine, error) {
	e, err := New(db)
	if err != nil {
		return nil, err
	}
	e.win = newWindowState(cfg)
	return e, nil
}

// newWindowState resolves cfg's defaults into a table-pass state.
func newWindowState(cfg WindowConfig) *windowState {
	w := int(cfg.Rows)
	if w <= 0 {
		w = DefaultWindowRows
	}
	spill := cfg.SpillRows
	if spill == 0 {
		spill = DefaultSpillRows
	} else if spill < 0 {
		spill = -1
	}
	win := &windowState{cfg: cfg, rows: w, spillAt: spill, spills: make(map[string]bool)}
	if reg := obs.Active(); reg != nil {
		win.m = windowMetrics{
			windows:    reg.Counter("engine_windows_total"),
			winRows:    reg.Histogram("engine_window_rows"),
			spillFiles: reg.Counter("engine_spill_files_total"),
			spillBytes: reg.Counter("engine_spill_bytes_total"),
			fallbacks:  reg.Counter("engine_window_fallbacks_total"),
			events:     reg.Events(),
		}
	}
	return win
}

// Close releases windowed-evaluation resources: any outstanding spill files
// and, when the engine created its own spill directory, the directory
// itself. Classic engines have nothing to release. Safe to call repeatedly.
func (e *Engine) Close() error {
	var first error
	for p := range e.win.spills {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
		delete(e.win.spills, p)
	}
	if e.win.ownDir && e.win.spillDir != "" {
		if err := os.RemoveAll(e.win.spillDir); err != nil && first == nil {
			first = err
		}
		e.win.spillDir, e.win.ownDir = "", false
	}
	return first
}

// gate is the per-window fault point: injected faults and context
// cancellation surface as StageErrors carrying the window index. The context
// is polled after the injection point, so an injected cancel is reported by
// the window it landed in.
func (w *windowState) gate(wi int) error {
	if err := faultinject.Fire(WindowStage, wi); err != nil {
		return fault.Wrap(WindowStage, wi, err)
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return fault.Wrap(WindowStage, wi, err)
		}
	}
	return nil
}

// fill writes rows [lo,hi) of a column into dst: what storage holds or
// derives comes from there, any other column through the table's chunk
// source.
func (w *windowState) fill(t *storage.TableData, col string, dst []int64, lo, hi int64) error {
	err := t.Fill(col, dst, lo, hi)
	if err != storage.ErrNotMaterialized {
		return err
	}
	src := w.cfg.Sources[t.Meta.Name]
	if src == nil {
		return fmt.Errorf("window: column %s.%s: %w, and the table has no chunk source", t.Meta.Name, col, err)
	}
	return src.Fill(col, dst, lo, hi)
}

// ensureSpillDir resolves (and creates on first use) the spill directory.
func (w *windowState) ensureSpillDir() (string, error) {
	if w.spillDir != "" {
		return w.spillDir, nil
	}
	if w.cfg.SpillDir != "" {
		if err := os.MkdirAll(w.cfg.SpillDir, 0o755); err != nil {
			return "", err
		}
		w.spillDir = w.cfg.SpillDir
		return w.spillDir, nil
	}
	dir, err := os.MkdirTemp("", "mirage-spill-")
	if err != nil {
		return "", err
	}
	w.spillDir, w.ownDir = dir, true
	return dir, nil
}

// ensureScratch sizes the window's row-index scratch for a window of rows
// rows.
func (w *windowState) ensureScratch(rows int) {
	if len(w.rowBuf) < rows {
		w.rowBuf = make([]int32, rows)
		w.idxBuf = make([]int32, rows)
		w.selWin = make([]int32, rows)
		w.outBuf = make([]int32, rows)
	}
}

// chunk returns the k-th chunk buffer, at least rows long.
func (w *windowState) chunk(k, rows int) []int64 {
	for len(w.chunkBuf) <= k {
		w.chunkBuf = append(w.chunkBuf, nil)
	}
	if len(w.chunkBuf[k]) < rows {
		w.chunkBuf[k] = make([]int64, rows)
	}
	return w.chunkBuf[k]
}

// windowBinder resolves predicate columns for one table pass. A materialized
// column is its whole storage slice, read through the window's table row
// indices — nothing is copied; a regenerated one is its chunk buffer
// (refilled every window), read through the window-local offsets. Bound once
// per pass, valid across all windows because the slice headers never change.
type windowBinder struct {
	cols []string
	vals [][]int64
	idx  [][]int32
}

func (b windowBinder) ResolveColumn(col string) ([]int64, []int32, error) {
	for i, c := range b.cols {
		if c == col {
			return b.vals[i], b.idx[i], nil
		}
	}
	return nil, nil, fmt.Errorf("window: column %q not collected for binding", col)
}

// chainScan is one selection chain inside a table pass: its selections
// bottom-up, where its survivors go, and — filled in by the pass — the bound
// predicates and per-selection survivor counts.
type chainScan struct {
	selects []*relalg.View
	// emit receives a window's surviving global row indices, ascending, in
	// a scratch slice it must not retain.
	emit   func(rows []int32) error
	bound  []relalg.BoundPred
	counts []int64
}

// winRun is one pass over the windows of a single table: the input row-index
// stream, the columns its chains read that have to be regenerated (the k-th
// into chunk buffer k), and the chains.
type winRun struct {
	e      *Engine
	t      *storage.TableData
	rows   []int32 // nil = dense identity over [0, tRows)
	regen  []string
	chains []*chainScan
}

// window evaluates one [lo,hi) window over input positions [p0,p1): one gate,
// one fill per regenerated column, then every chain's filters over the same
// buffers. A panic inside the window body is contained here, so the caller
// observes a typed StageError carrying the window index.
func (r *winRun) window(wi, lo, hi, p0, p1 int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.Recovered(WindowStage, wi, rec)
		}
	}()
	win := r.e.win
	if err := win.gate(wi); err != nil {
		return err
	}
	nIn := p1 - p0
	cand := win.rowBuf[:nIn]
	if r.rows == nil {
		for j := range cand {
			cand[j] = int32(lo + j)
		}
	} else {
		copy(cand, r.rows[p0:p1])
	}
	if len(r.regen) > 0 {
		for j, row := range cand {
			win.idxBuf[j] = row - int32(lo)
		}
	}
	for ci, c := range r.regen {
		if err := win.fill(r.t, c, win.chunkBuf[ci][:hi-lo], int64(lo), int64(hi)); err != nil {
			return fault.Wrap(WindowStage, wi, err)
		}
	}
	for _, c := range r.chains {
		sel := win.selWin[:nIn]
		for j := range sel {
			sel[j] = int32(j)
		}
		for k := range c.bound {
			sel = c.bound[k].FilterBatch(sel)
			c.counts[k] += int64(len(sel))
			if len(sel) == 0 {
				break
			}
		}
		if len(sel) == 0 {
			continue
		}
		out := win.outBuf[:len(sel)]
		for j, pos := range sel {
			out[j] = cand[pos]
		}
		if err := c.emit(out); err != nil {
			return fault.Wrap(WindowStage, wi, err)
		}
	}
	win.m.windows.Inc()
	win.m.winRows.Observe(int64(nIn))
	return nil
}

// runWindows makes one pass over table t for all of chains: every chain is a
// bottom-up selection chain over the ascending row indices rows (rows == nil
// means the dense identity [0, tRows)). One window of the table's row domain
// at a time, the chains' regenerated columns are filled once each
// (materialized ones are read where they are), and each chain filters the
// window and hands its surviving global row indices to its emit in ascending
// order. Each chain's counts end up holding the per-selection survivor
// counts — exactly the cardinalities full-column evaluation observes.
func (e *Engine) runWindows(t *storage.TableData, rows []int32, chains []*chainScan, orig bool) error {
	win := e.win
	tRows := t.Rows()
	table := t.Meta.Name

	cols := win.colBuf[:0]
	for _, c := range chains {
		for _, v := range c.selects {
			cols = v.Pred.Columns(cols)
		}
	}
	// Dedup in place (a table's chains reference a handful of columns) and
	// check ownership: a single-table selection can only read its own table.
	uniq := cols[:0]
	for _, c := range cols {
		dup := false
		for _, u := range uniq {
			dup = dup || u == c
		}
		if !dup {
			uniq = append(uniq, c)
		}
	}
	cols = uniq
	win.colBuf = cols
	for _, c := range cols {
		if owner, ok := e.owner[c]; !ok || owner != table {
			return fmt.Errorf("column %q of table %q not in relation [%s]", c, owner, table)
		}
	}

	effW := win.rows
	if tRows > 0 && effW > tRows {
		effW = tRows
	}
	if effW < 1 {
		effW = 1
	}
	win.ensureScratch(effW)
	binder := windowBinder{cols: cols, vals: make([][]int64, len(cols)), idx: make([][]int32, len(cols))}
	var regen []string
	for i, c := range cols {
		vals, err := t.Lookup(c)
		switch {
		case err != nil:
			return err
		case vals == nil:
			binder.vals[i], binder.idx[i] = win.chunk(len(regen), effW), win.idxBuf
			regen = append(regen, c)
		default:
			if err := storage.CheckFillRange(table, c, int64(len(vals)), tRows, 0, int64(tRows)); err != nil {
				return fmt.Errorf("window: %w", err)
			}
			binder.vals[i], binder.idx[i] = vals, win.rowBuf
		}
	}
	for _, c := range chains {
		c.bound = make([]relalg.BoundPred, len(c.selects))
		c.counts = make([]int64, len(c.selects))
		for k, v := range c.selects {
			bp, err := relalg.BindPred(v.Pred, binder, orig)
			if err != nil {
				return err
			}
			c.bound[k] = bp
		}
	}

	run := &winRun{e: e, t: t, rows: rows, regen: regen, chains: chains}
	p := 0
	for lo := 0; lo < tRows; lo += effW {
		hi := lo + effW
		if hi > tRows {
			hi = tRows
		}
		var p0, p1 int
		if rows == nil {
			p0, p1 = lo, hi
		} else {
			p0 = p
			for p < len(rows) && rows[p] < int32(hi) {
				p++
			}
			p1 = p
		}
		if p1 == p0 {
			continue // no candidate rows in this window: skip fills entirely
		}
		if err := run.window(lo/effW, lo, hi, p0, p1); err != nil {
			return err
		}
	}
	return nil
}

// observeChain records a finished chain's per-selection cardinalities —
// metrics and res.Stats — the way eval's leaf and selection arms would have.
func (e *Engine) observeChain(leaf *relalg.View, c *chainScan, tRows int, res *Result) {
	e.m.opRows[relalg.LeafView].Observe(int64(tRows))
	res.Stats[leaf] = Stats{Card: int64(tRows), JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
	prev := int64(tRows)
	for k, v := range c.selects {
		e.m.opRows[v.Kind].Observe(c.counts[k])
		e.m.filtered.Add(prev - c.counts[k])
		res.Stats[v] = Stats{Card: c.counts[k], JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
		prev = c.counts[k]
	}
}

// sharedChain is a selection chain over a base-table leaf found in the views
// of one CollectRowSetsCtx call. It is evaluated once, in its table's pass,
// however often it occurs: every request that is this chain gets its own
// accumulator (so each returned RowSet has exactly one owner), and the
// join-shaped views that contain it share one more, read by their reductions
// and released after the last of them.
type sharedChain struct {
	chainScan
	leaf  *relalg.View
	tRows int         // the leaf table's row count, known once its pass ran
	tops  []int       // requests this chain is the whole view of
	accs  []*rowAccum // one per top, then one for inner when innerRefs > 0
	// inner is the chain's rows for the innerRefs occurrences under joins.
	inner     *RowSet
	innerRefs int
}

// add is the chain's emit: every accumulator takes the window's survivors.
func (c *sharedChain) add(rows []int32) error {
	for _, a := range c.accs {
		if err := a.add(rows); err != nil {
			return err
		}
	}
	return nil
}

// RowSetRequest names one row set: the distinct rows of Table in View's
// output.
type RowSetRequest struct {
	View  *relalg.View
	Table string
}

// collectRowSets is CollectRowSetsCtx recording every evaluated selection's
// cardinality in res. It finds every selection chain over a base-table leaf
// in the requests' views — a whole view, or a join's input anywhere inside a
// reducible one — and makes one pass per table over all of that table's
// chains, so a column is read or regenerated once per window per call, not
// once per view. Chain-shaped requests are answered straight from the passes,
// reducible join-shaped ones by semi-join reduction over the passes' results
// (reduce.go), and whatever is left by evaluating the view.
func (e *Engine) collectRowSets(ctx context.Context, reqs []RowSetRequest, orig bool, res *Result) (_ []*RowSet, err error) {
	win := e.win
	win.ctx = ctx
	sets := make([]*RowSet, len(reqs))
	chains := make(map[*relalg.View]*sharedChain)
	var tables []string
	byTable := make(map[string][]*sharedChain)
	// On any exit nothing of the call stays behind but the returned sets: on
	// failure every open accumulator is aborted (no torn spill file) and the
	// sets already sealed are released.
	defer func() {
		win.ctx = nil
		for _, c := range chains {
			c.inner.Release() // no-op once its last reduction has read it
			if err != nil {
				for _, a := range c.accs {
					a.abort()
				}
			}
		}
		if err != nil {
			for _, s := range sets {
				s.Release()
			}
		}
	}()

	chainOf := func(top, leaf *relalg.View, selects []*relalg.View) *sharedChain {
		c := chains[top]
		if c == nil {
			c = &sharedChain{leaf: leaf}
			c.selects, c.emit = selects, c.add
			chains[top] = c
			if byTable[leaf.Table] == nil {
				tables = append(tables, leaf.Table)
			}
			byTable[leaf.Table] = append(byTable[leaf.Table], c)
		}
		return c
	}
	// findInner registers the chains under the joins of a reducible view,
	// where every selection is the top of one.
	var findInner func(v *relalg.View)
	findInner = func(v *relalg.View) {
		if v.Kind == relalg.SelectView {
			leaf, selects, _ := relalg.SelectChain(v)
			chainOf(v, leaf, selects).innerRefs++
			return
		}
		for _, in := range v.Inputs {
			findInner(in)
		}
	}
	var reduced, materialized []int // requests that are not a chain over their own table
	for i, rq := range reqs {
		leaf, selects, ok := relalg.SelectChain(rq.View)
		switch {
		case !ok || leaf.Table != rq.Table:
			if reducible(rq.View) {
				findInner(rq.View)
				reduced = append(reduced, i)
			} else {
				materialized = append(materialized, i)
			}
		case len(selects) == 0:
			t, err := e.db.Lookup(leaf.Table)
			if err != nil {
				return nil, err
			}
			e.observeChain(leaf, &chainScan{}, t.Rows(), res)
			sets[i] = &RowSet{n: t.Rows(), dense: true}
		default:
			c := chainOf(rq.View, leaf, selects)
			c.tops = append(c.tops, i)
		}
	}

	for _, table := range tables {
		t, err := e.db.Lookup(table)
		if err != nil {
			return nil, err
		}
		tc := byTable[table]
		scans := make([]*chainScan, len(tc))
		for i, c := range tc {
			n := len(c.tops)
			if c.innerRefs > 0 {
				n++
			}
			for ; n > 0; n-- {
				c.accs = append(c.accs, &rowAccum{win: win, limit: win.spillAt})
			}
			scans[i] = &c.chainScan
		}
		tm := e.m.opNS[relalg.SelectView].Start()
		if err := e.runWindows(t, nil, scans, orig); err != nil {
			return nil, err
		}
		tm.Stop()
		for _, c := range tc {
			c.tRows = t.Rows()
			for i, a := range c.accs {
				s, err := a.finish()
				if err != nil {
					return nil, err
				}
				if i < len(c.tops) {
					e.observeChain(c.leaf, &c.chainScan, c.tRows, res)
					sets[c.tops[i]] = s
				} else {
					c.inner = s
				}
			}
		}
	}

	for _, i := range reduced {
		tm := e.m.opNS[relalg.JoinView].Start()
		if sets[i], err = e.reduceRowSet(reqs[i], chains, res); err != nil {
			return nil, err
		}
		tm.Stop()
	}
	for _, i := range materialized {
		rows, err := e.collectRows(reqs[i].View, reqs[i].Table, orig, res)
		if err != nil {
			return nil, err
		}
		e.m.materialized.Inc()
		sets[i] = &RowSet{mem: rows, n: len(rows)}
	}
	return sets, nil
}

// RowSet is an ascending set of base-table row indices produced by
// CollectRowSetsCtx. Small sets live in memory (or are dense, stored as a
// count); sets past the spill threshold live in a raw little-endian int32
// spill file. Consumers stream it with ForEach and must Release it when the
// rows have been folded into their masks.
type RowSet struct {
	mem   []int32
	n     int
	dense bool // rows are exactly [0, n)
	path  string
	win   *windowState
}

// Len returns the number of rows in the set. Nil-safe.
func (s *RowSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// ForEach streams the rows in ascending order. A spilled set is decoded
// through its engine's spill buffer, so fn must not call into the engine.
func (s *RowSet) ForEach(fn func(int32)) error {
	switch {
	case s == nil || s.n == 0:
	case s.dense:
		for r := int32(0); int(r) < s.n; r++ {
			fn(r)
		}
	case s.path != "":
		return s.readSpill(spillFlushRows, func(raw []byte) error {
			for i := 0; i < len(raw); i += 4 {
				fn(int32(binary.LittleEndian.Uint32(raw[i:])))
			}
			return nil
		})
	default:
		for _, r := range s.mem {
			fn(r)
		}
	}
	return nil
}

// blocks streams the rows in ascending order, at most len(buf) at a time. The
// slice fn receives is read-only and valid only during the call: an in-memory
// set hands out its own storage, dense and spilled sets are staged in buf.
func (s *RowSet) blocks(buf []int32, fn func(rows []int32) error) error {
	switch {
	case s == nil || s.n == 0:
	case s.dense:
		for lo := 0; lo < s.n; lo += len(buf) {
			b := buf[:min(len(buf), s.n-lo)]
			for j := range b {
				b[j] = int32(lo + j)
			}
			if err := fn(b); err != nil {
				return err
			}
		}
	case s.path != "":
		return s.readSpill(len(buf), func(raw []byte) error {
			b := buf[:len(raw)/4]
			for i := range b {
				b[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			return fn(b)
		})
	default:
		for lo := 0; lo < len(s.mem); lo += len(buf) {
			if err := fn(s.mem[lo:min(lo+len(buf), len(s.mem))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSpill reads a spilled set's file through the engine's spill buffer and
// hands fn the raw little-endian rows, at most maxRows of them at a time.
func (s *RowSet) readSpill(maxRows int, fn func(raw []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("window: spill read: %w", err)
	}
	defer f.Close()
	buf := s.win.spillBlock()
	for left := s.n; left > 0; {
		n := min(left, len(buf)/4, maxRows)
		if _, err := io.ReadFull(f, buf[:4*n]); err != nil {
			return fmt.Errorf("window: spill read: %w", err)
		}
		if err := fn(buf[:4*n]); err != nil {
			return err
		}
		left -= n
	}
	return nil
}

// Release frees the set; spilled files are deleted. Nil-safe and idempotent.
func (s *RowSet) Release() {
	if s == nil {
		return
	}
	s.mem, s.n, s.dense = nil, 0, false
	if s.path != "" {
		os.Remove(s.path)
		if s.win != nil {
			delete(s.win.spills, s.path)
		}
		s.path = ""
	}
}

// spillFlushRows is how many buffered rows a spilling accumulator writes out
// at a time once the spill file is open; it is also the block spilled rows
// are read back in.
const spillFlushRows = 16 * 1024

// spillBlock returns the engine's spill I/O buffer, one block of rows long.
func (w *windowState) spillBlock() []byte {
	if w.spillBuf == nil {
		w.spillBuf = make([]byte, 4*spillFlushRows)
	}
	return w.spillBuf
}

// rowAccum accumulates ascending row indices, spilling to disk once the
// in-memory prefix exceeds the threshold. The spill file holds every row on
// finish, so a spilled RowSet reads from one place.
type rowAccum struct {
	win   *windowState
	mem   []int32
	n     int
	f     *os.File
	path  string
	limit int // spill threshold in rows; < 0 = never spill
	// staged marks mem as borrowed scratch (windowState.stage): finish copies
	// the rows out instead of handing the buffer on.
	staged bool
}

func (a *rowAccum) add(rows []int32) error {
	a.n += len(rows)
	a.mem = append(a.mem, rows...)
	switch {
	case a.f != nil:
		if len(a.mem) >= spillFlushRows {
			return a.flushMem()
		}
	case a.limit >= 0 && len(a.mem) >= a.limit:
		return a.startSpill()
	}
	return nil
}

func (a *rowAccum) startSpill() error {
	dir, err := a.win.ensureSpillDir()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "rowset-*.spill")
	if err != nil {
		return err
	}
	a.f, a.path = f, f.Name()
	a.win.spills[a.path] = true
	a.win.m.spillFiles.Inc()
	a.win.m.events.Emit(obs.Event{Type: obs.EventSpill, Table: filepath.Base(a.path), Rows: int64(a.n)})
	return a.flushMem()
}

// flushMem appends the buffered rows to the spill file as little-endian
// int32, a block per write.
func (a *rowAccum) flushMem() error {
	buf := a.win.spillBlock()
	for rows := a.mem; len(rows) > 0; {
		n := min(len(rows), len(buf)/4)
		for i, r := range rows[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(r))
		}
		if _, err := a.f.Write(buf[:4*n]); err != nil {
			return err
		}
		rows = rows[n:]
	}
	a.win.m.spillBytes.Add(int64(4 * len(a.mem)))
	a.mem = a.mem[:0]
	return nil
}

// finish seals the accumulated set into a RowSet. An in-memory set is cut to
// its exact size: it lives until its consumer releases it, append's growth
// slack would live as long.
func (a *rowAccum) finish() (*RowSet, error) {
	if a.f == nil {
		mem := a.mem
		if a.staged || cap(mem) > len(mem) {
			mem = append(make([]int32, 0, len(mem)), mem...)
		}
		a.mem = nil
		return &RowSet{mem: mem, n: a.n, win: a.win}, nil
	}
	if err := a.flushMem(); err != nil {
		a.abort()
		return nil, err
	}
	if err := a.f.Close(); err != nil {
		a.abort()
		return nil, err
	}
	rs := &RowSet{n: a.n, path: a.path, win: a.win}
	a.f, a.mem = nil, nil
	return rs, nil
}

// abort discards the accumulator, removing a partially written spill file.
// After finish it does nothing.
func (a *rowAccum) abort() {
	if a.f != nil {
		a.f.Close()
		os.Remove(a.path)
		delete(a.win.spills, a.path)
		a.f = nil
	}
	a.mem = nil
}
