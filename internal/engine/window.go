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
	"slices"
	"sync"
	"sync/atomic"

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
	spillFiles *obs.Counter
	spillBytes *obs.Counter
	fallbacks  *obs.Counter
	events     *obs.Journal
}

// windowState is the per-engine table-pass state: configuration, the window
// scratch of every worker a pass may run on, and the ledger of outstanding
// spill files. The engine's goroutine owns it; a pass's workers touch only
// their own winScratch (and the atomic metrics).
type windowState struct {
	cfg     WindowConfig
	rows    int // resolved window size
	spillAt int // resolved spill threshold; -1 = never spill
	// ctx is the context of the CollectRowSetsCtx call in flight; window
	// gates poll it so cancellation lands mid-evaluation, not only at the
	// next unit boundary.
	ctx context.Context
	// ws holds one window scratch per worker, grown to the widest pass run.
	ws     []*winScratch
	colBuf []string
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

// winScratch is one worker's window scratch, sized once per engine: one chunk
// buffer per regenerated column, the window's candidate rows as table row
// indices (rowBuf) and as window-local offsets into the chunk buffers
// (idxBuf, the identity), the selection vector and a reduction's filter
// output. A table pass binds the worker's own predicates against these
// buffers (bound, one list per chain) — they hold the slice headers across
// windows, so the buffers are refilled in place, never resliced — and leaves
// each window's survivors in surv, chain c's ending at ends[c], for the
// coordinator to emit in window order. counts are the worker's per-chain,
// per-selection survivor counts; blk is the reduction block it claimed and
// rows that block's rows as it filters them.
type winScratch struct {
	chunkBuf [][]int64
	rowBuf   []int32
	idxBuf   []int32
	selWin   []int32
	outBuf   []int32
	bound    [][]relalg.BoundPred
	counts   [][]int64
	surv     []int32
	ends     []int
	blk      rowBlock
	rows     []int32
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
	return &windowState{cfg: cfg, rows: w, spillAt: spill, spills: make(map[string]bool)}
}

func newWindowMetrics(reg *obs.Registry) windowMetrics {
	if reg == nil {
		return windowMetrics{}
	}
	return windowMetrics{
		windows:    reg.Counter("engine_windows_total"),
		spillFiles: reg.Counter("engine_spill_files_total"),
		spillBytes: reg.Counter("engine_spill_bytes_total"),
		fallbacks:  reg.Counter("engine_window_fallbacks_total"),
		events:     reg.Events(),
	}
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

// gate is the per-window fault point: injected faults, injected panics and
// context cancellation surface as StageErrors carrying the window index. The
// context is polled after the injection point, so an injected cancel is
// reported by the window it landed in. Passes gate their windows in order
// from the calling goroutine (roundWork.load), so what fails where does not
// depend on the width.
func (w *windowState) gate(wi int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.Recovered(WindowStage, wi, rec)
		}
	}()
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

// workers returns the scratch of n workers, each sized for windows of rows
// rows.
func (w *windowState) workers(n, rows int) []*winScratch {
	for len(w.ws) < n {
		w.ws = append(w.ws, &winScratch{})
	}
	for _, s := range w.ws[:n] {
		if len(s.rowBuf) < rows {
			s.rowBuf = make([]int32, rows)
			s.idxBuf = make([]int32, rows)
			s.selWin = make([]int32, rows)
			s.outBuf = make([]int32, rows)
			for j := range s.idxBuf {
				s.idxBuf[j] = int32(j)
			}
		}
	}
	return w.ws[:n]
}

// chunk returns the k-th chunk buffer, at least rows long.
func (s *winScratch) chunk(k, rows int) []int64 {
	for len(s.chunkBuf) <= k {
		s.chunkBuf = append(s.chunkBuf, nil)
	}
	if len(s.chunkBuf[k]) < rows {
		s.chunkBuf[k] = make([]int64, rows)
	}
	return s.chunkBuf[k]
}

// roundWork is a pass of items run in rounds: load gates and stages item i
// for worker k (sequentially, in item order), run evaluates it on the
// worker's goroutine, and commit consumes its result (sequentially, in item
// order).
type roundWork interface {
	load(k, i int) error
	run(k, i int) error
	commit(k, i int) error
}

// rounds runs items [0, n) of w in rounds of up to width, the round's items on
// as many goroutines. The error returned is that of the lowest failing item —
// a failed load counts as its item's failure — every item before it is
// committed, and no item past its round is started.
func rounds(n, width int, w roundWork) error {
	var errs []error
	for base := 0; base < n; base += width {
		m := min(width, n-base)
		var loadErr error
		for k := 0; k < m; k++ {
			if loadErr = w.load(k, base+k); loadErr != nil {
				m = k
				break
			}
		}
		switch {
		case m == 1:
			if err := w.run(0, base); err != nil {
				return err
			}
		case m > 1:
			if errs == nil {
				errs = make([]error, width)
			}
			runRound(w, base, errs[:m])
		}
		for k := 0; k < m; k++ {
			if m > 1 && errs[k] != nil {
				return errs[k]
			}
			if err := w.commit(k, base+k); err != nil {
				return err
			}
		}
		if loadErr != nil {
			return loadErr
		}
	}
	return nil
}

// runRound runs items base, base+1, ... of w, one per entry of errs, on as
// many goroutines (the last on the caller's) and records their errors.
func runRound(w roundWork, base int, errs []error) {
	var wg sync.WaitGroup
	last := len(errs) - 1
	for k := range errs[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = w.run(k, base+k)
		}()
	}
	errs[last] = w.run(last, base+last)
	wg.Wait()
}

// windowBinder resolves predicate columns for one worker's table pass. A
// materialized column is its whole storage slice, read through the window's
// table row indices — nothing is copied; a regenerated one is the worker's
// chunk buffer (refilled every window), read through the window-local
// offsets. Bound once per pass, valid across all windows because the slice
// headers never change.
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
// bottom-up, where its survivors go, and — filled in by the pass — the
// per-selection survivor counts.
type chainScan struct {
	selects []*relalg.View
	// emit receives a window's surviving global row indices, ascending, in
	// a scratch slice it must not retain. Windows arrive in order.
	emit   func(rows []int32) error
	counts []int64
}

// winRun is one pass over the windows of a single table: the window size,
// the columns its chains read that have to be regenerated (the k-th into
// chunk buffer k), the chains and the workers' scratch.
type winRun struct {
	e      *Engine
	t      *storage.TableData
	effW   int
	regen  []string
	chains []*chainScan
	ws     []*winScratch
}

// bind compiles every chain's selections against worker s's buffers over the
// columns cols of the pass, which runWindows has checked.
func (r *winRun) bind(s *winScratch, cols []string, orig bool) error {
	b := windowBinder{cols: cols, vals: make([][]int64, len(cols)), idx: make([][]int32, len(cols))}
	k := 0
	for i, c := range cols {
		if vals, _ := r.t.Lookup(c); vals != nil {
			b.vals[i], b.idx[i] = vals, s.rowBuf
			continue
		}
		b.vals[i], b.idx[i] = s.chunk(k, r.effW), s.idxBuf
		k++
	}
	s.bound, s.counts = s.bound[:0], s.counts[:0]
	for _, c := range r.chains {
		bound := make([]relalg.BoundPred, len(c.selects))
		for k, v := range c.selects {
			bp, err := relalg.BindPred(v.Pred, b, orig)
			if err != nil {
				return err
			}
			bound[k] = bp
		}
		s.bound = append(s.bound, bound)
		s.counts = append(s.counts, make([]int64, len(c.selects)))
	}
	return nil
}

func (r *winRun) load(_, wi int) error { return r.e.win.gate(wi) }

// run evaluates window wi on worker k: one fill per regenerated column, then
// every chain's filters over the same buffers, the survivors left in the
// worker's scratch for commit. A panic inside the window body is contained
// here, so the caller observes a typed StageError carrying the window index.
func (r *winRun) run(k, wi int) (err error) {
	s := r.ws[k]
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.Recovered(WindowStage, wi, rec)
		}
	}()
	win := r.e.win
	lo := wi * r.effW
	hi := min(lo+r.effW, r.t.Rows())
	cand := s.rowBuf[:hi-lo]
	for j := range cand {
		cand[j] = int32(lo + j)
	}
	for ci, c := range r.regen {
		if err := win.fill(r.t, c, s.chunkBuf[ci][:hi-lo], int64(lo), int64(hi)); err != nil {
			return fault.Wrap(WindowStage, wi, err)
		}
	}
	s.surv, s.ends = s.surv[:0], s.ends[:0]
	for ci, bound := range s.bound {
		sel := s.selWin[:len(cand)]
		for j := range sel {
			sel[j] = int32(j)
		}
		for k, bp := range bound {
			sel = bp.FilterBatch(sel)
			s.counts[ci][k] += int64(len(sel))
			if len(sel) == 0 {
				break
			}
		}
		n := len(s.surv)
		s.surv = slices.Grow(s.surv, len(sel))[:n+len(sel)]
		for j, pos := range sel {
			s.surv[n+j] = cand[pos]
		}
		s.ends = append(s.ends, len(s.surv))
	}
	win.m.windows.Inc()
	return nil
}

// commit hands window wi's survivors, left by run in worker k's scratch, to
// every chain.
func (r *winRun) commit(k, wi int) error {
	s := r.ws[k]
	start := 0
	for ci, c := range r.chains {
		end := s.ends[ci]
		if end > start {
			if err := c.emit(s.surv[start:end]); err != nil {
				return fault.Wrap(WindowStage, wi, err)
			}
		}
		start = end
	}
	return nil
}

// runWindows makes one pass over table t for all of chains, each a bottom-up
// selection chain over the table's rows. One window of the table's row domain
// at a time, the chains' regenerated columns are filled once each
// (materialized ones are read where they are), and each chain filters the
// window. Windows are evaluated in rounds of up to width, one per worker with
// its own scratch and bound predicates, and every chain's emit receives the
// surviving global row indices window by window, in ascending order, from the
// calling goroutine. Each chain's counts end up holding the per-selection
// survivor counts — exactly the cardinalities full-column evaluation
// observes, at any width.
func (e *Engine) runWindows(t *storage.TableData, chains []*chainScan, orig bool, width int) error {
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

	effW := max(1, min(win.rows, tRows))
	nWin := (tRows + effW - 1) / effW
	run := &winRun{e: e, t: t, effW: effW, chains: chains}
	for _, c := range cols {
		vals, err := t.Lookup(c)
		switch {
		case err != nil:
			return err
		case vals == nil:
			run.regen = append(run.regen, c)
		default:
			if err := storage.CheckFillRange(table, c, int64(len(vals)), tRows, 0, int64(tRows)); err != nil {
				return fmt.Errorf("window: %w", err)
			}
		}
	}
	run.ws = win.workers(max(1, min(width, nWin)), effW)
	for _, s := range run.ws {
		if err := run.bind(s, cols, orig); err != nil {
			return err
		}
	}
	if err := rounds(nWin, len(run.ws), run); err != nil {
		return err
	}
	// Every bind hands out fresh count slices, so the first worker's become
	// the chains'.
	for ci, c := range chains {
		c.counts = run.ws[0].counts[ci]
		for _, s := range run.ws[1:] {
			for k, n := range s.counts[ci] {
				c.counts[k] += n
			}
		}
	}
	return nil
}

// observeChain records a finished chain's per-selection cardinalities —
// metrics and res.Stats — the way eval's leaf and selection arms would have.
func (e *Engine) observeChain(leaf *relalg.View, c *chainScan, tRows int, res *Result) {
	e.m.opRows[relalg.LeafView].Observe(int64(tRows))
	res.Stats[leaf] = Stats{Card: int64(tRows), JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
	for k, v := range c.selects {
		e.m.opRows[v.Kind].Observe(c.counts[k])
		res.Stats[v] = Stats{Card: c.counts[k], JCC: relalg.CardUnknown, JDC: relalg.CardUnknown}
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
		if err := e.runWindows(t, scans, orig, e.width); err != nil {
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
// spill file. Consumers fold it into their masks with OrMasks and must
// Release it afterwards.
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

// maskChunkRows is how many entries of a status-mask slice OrMasks folds as
// one piece of work: 256 KiB of masks, which stay in a core's cache while
// every set's rows of the chunk are folded in.
const maskChunkRows = 1 << 15

// OrMasks ORs bits[k] into masks[r] for every row r of sets[k]. The masks are
// folded chunk by chunk on up to width goroutines: a goroutine takes the next
// chunk of maskChunkRows entries and folds every set's rows in it, found by
// binary search, before it takes another, so no two goroutines write one
// entry and a chunk is read from memory once for all the sets. A spilled set
// is read once, front to back, through its engine's spill buffer, and folded
// first, on the calling goroutine. Rows must be < len(masks).
func OrMasks(masks []uint64, sets []*RowSet, bits []uint64, width int) error {
	var resident []int // sets folded by chunk
	for k, s := range sets {
		switch {
		case s.Len() == 0:
		case s.path == "":
			resident = append(resident, k)
		default:
			if err := s.orSpilled(masks, bits[k]); err != nil {
				return err
			}
		}
	}
	if len(resident) == 0 {
		return nil
	}
	chunks := (len(masks) + maskChunkRows - 1) / maskChunkRows
	var next atomic.Int64
	fold := func() {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			lo := c * maskChunkRows
			m := masks[lo:min(lo+maskChunkRows, len(masks))]
			for _, k := range resident {
				s, bit := sets[k], bits[k]
				if s.dense {
					for r := range m[:max(0, min(len(m), s.n-lo))] {
						m[r] |= bit
					}
					continue
				}
				i, _ := slices.BinarySearch(s.mem, int32(lo))
				j, _ := slices.BinarySearch(s.mem[i:], int32(lo+len(m)))
				for _, r := range s.mem[i : i+j] {
					m[int(r)-lo] |= bit
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(width, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fold()
		}()
	}
	fold()
	wg.Wait()
	return nil
}

// orSpilled ORs bit into masks[r] for every row r of the spilled set s.
func (s *RowSet) orSpilled(masks []uint64, bit uint64) error {
	rd := s.reader(spillFlushRows)
	defer rd.close()
	buf := make([]int32, rd.size)
	for i := rd.blocks(); i > 0; i-- {
		blk, err := rd.next(buf)
		if err != nil {
			return err
		}
		for _, r := range blk.rows {
			masks[r] |= bit
		}
	}
	return nil
}

// rowReader reads a RowSet block by block, in ascending order: an in-memory
// set hands out its own storage, spilled sets are decoded into the caller's
// buffer as they are read, and a dense set's blocks are ranges its caller
// stages later, on the worker that takes them.
type rowReader struct {
	s    *RowSet
	size int // rows per block
	pos  int // rows read so far
	f    *os.File
}

// reader opens a block reader over s with blocks of at most size rows (a
// spilled set's are capped at its spill I/O block, and none exceeds the set).
func (s *RowSet) reader(size int) rowReader {
	size = min(size, s.Len())
	if s != nil && s.path != "" {
		size = min(size, spillFlushRows)
	}
	return rowReader{s: s, size: max(1, size)}
}

// blocks returns how many blocks the reader yields.
func (rd *rowReader) blocks() int {
	return (rd.s.Len() + rd.size - 1) / rd.size
}

// rowBlock is one block a rowReader claimed: its rows, or for a dense set
// the range [lo, lo+n) that stage writes out.
type rowBlock struct {
	rows  []int32
	lo, n int
	dense bool
}

// stage returns the block's rows, writing a dense range into buf (at least
// the reader's size rows).
func (b rowBlock) stage(buf []int32) []int32 {
	if !b.dense {
		return b.rows
	}
	rows := buf[:b.n]
	for j := range rows {
		rows[j] = int32(b.lo + j)
	}
	return rows
}

// next claims the next block — decoded into buf (at least size rows) for a
// spilled set — or an empty one once the set is exhausted.
func (rd *rowReader) next(buf []int32) (rowBlock, error) {
	s := rd.s
	n := min(rd.size, s.Len()-rd.pos)
	if n <= 0 {
		return rowBlock{}, nil
	}
	lo := rd.pos
	rd.pos += n
	switch {
	case s.dense:
		return rowBlock{lo: lo, n: n, dense: true}, nil
	case s.path != "":
		if rd.f == nil {
			f, err := os.Open(s.path)
			if err != nil {
				return rowBlock{}, fmt.Errorf("window: spill read: %w", err)
			}
			rd.f = f
		}
		raw := s.win.spillBlock()[:4*n]
		if _, err := io.ReadFull(rd.f, raw); err != nil {
			return rowBlock{}, fmt.Errorf("window: spill read: %w", err)
		}
		b := buf[:n]
		for i := range b {
			b[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return rowBlock{rows: b}, nil
	}
	return rowBlock{rows: s.mem[lo : lo+n]}, nil
}

// close releases the reader's spill file, if it opened one.
func (rd *rowReader) close() {
	if rd.f != nil {
		rd.f.Close()
		rd.f = nil
	}
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
