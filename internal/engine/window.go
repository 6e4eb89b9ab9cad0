package engine

// Window passes: how every engine answers CollectRowSetsCtx, and the
// out-of-core mode of the engine. Selection chains evaluate over [lo,hi) row
// windows of their base table, one pass per table for all of its chains:
// every column a chain reads is filled into a chunk buffer window by window
// — a stored column widened, the primary key derived, and any other column
// regenerated through the table's ChunkSource (the same regeneration path
// storage.RowSource.Fill uses for export). Only the surviving rows are kept,
// as one bit each. A classic engine (New) has every non-key and foreign-key
// column stored; a windowed engine (NewWindowed) lets the streaming pipeline
// retain only keygen's working set. The produced row sets, relations, and
// statistics are identical to full-column evaluation; only residency
// changes. See DESIGN.md §12.

import (
	"context"
	"fmt"
	"slices"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// DefaultWindowRows is the default evaluation window: large enough that
// per-window fill and bind overhead is amortized, small enough that one
// window of every referenced column is a few megabytes.
const DefaultWindowRows = 64 * 1024

// WindowStage is the stage windows run under as items of a
// parallel.OrderedCtx pool: per-window failures (context cancellation,
// injected faults, contained panics) are reported under it with the window
// index as the StageError's Item, and parallel_items_total{stage=
// "engine/window"} counts the windows run.
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
}

// windowState is the per-engine table-pass state: configuration, the window
// scratch of every worker a pass may run on and the output of every slot of
// its pool. The engine's goroutine owns it; a pass's workers touch only their
// own winScratch and the winSlot of the window they run.
type windowState struct {
	cfg  WindowConfig
	rows int // resolved window size
	// ws holds one window scratch per worker and slots one output per pool
	// slot, both grown to the widest pass run.
	ws     []*winScratch
	slots  []*winSlot
	colBuf []string
	// fallback caches whole columns materialized for reads outside a table
	// pass (columnData) — a correctness net, counted so regressions are
	// visible.
	fallback map[string]*storage.Column
}

// winScratch is one worker's window scratch, sized once per engine: one chunk
// buffer per column of the pass and the selection vector. A table pass binds
// the worker's own predicates against the chunk buffers (bound, one list per
// chain) — they hold the slice headers across windows, so the buffers are
// refilled in place, never resliced. counts are the worker's per-chain,
// per-selection survivor counts.
type winScratch struct {
	chunkBuf [][]int64
	selWin   []int32
	bound    [][]relalg.BoundPred
	counts   [][]int64
}

// winSlot is what one window leaves for its commit, owned by the window from
// the moment a worker takes it until the calling goroutine has committed it:
// a table pass's survivors, chain c's ending at ends[c], or a reduction
// window's rows that passed the tests.
type winSlot struct {
	surv []int32
	ends []int
}

// NewWindowed builds an engine whose table passes pull unmaterialized
// columns through cfg.Sources, a window at a time. Everything else behaves
// exactly like New — Execute regenerates a column it needs whole
// (columnData's counted fallback) — and generated row sets and stats are
// identical.
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
	return &windowState{cfg: cfg, rows: w}
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

// workers returns the scratch of n workers, each sized for windows of rows
// rows.
func (w *windowState) workers(n, rows int) []*winScratch {
	for len(w.ws) < n {
		w.ws = append(w.ws, &winScratch{})
	}
	for _, s := range w.ws[:n] {
		if len(s.selWin) < rows {
			s.selWin = make([]int32, rows)
		}
	}
	return w.ws[:n]
}

// slotsFor returns the outputs of the slots of a pool of n workers.
func (w *windowState) slotsFor(n int) []*winSlot {
	for len(w.slots) < parallel.Slots(n) {
		w.slots = append(w.slots, &winSlot{})
	}
	return w.slots[:parallel.Slots(n)]
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
// the columns its chains read (the k-th filled into chunk buffer k every
// window), the chains, the workers' scratch and the slots' outputs.
type winRun struct {
	e      *Engine
	t      *storage.TableData
	effW   int
	cols   []string
	chains []*chainScan
	ws     []*winScratch
	slots  []*winSlot
}

// bind compiles every chain's selections against worker s's chunk buffers,
// position j of a window reading its row lo+j. The buffers are refilled in
// place every window, so the bound predicates stay valid across windows.
func (r *winRun) bind(s *winScratch, orig bool) error {
	b := relalg.Buffers{Names: r.cols, Vals: make([][]int64, len(r.cols))}
	for k := range r.cols {
		b.Vals[k] = s.chunk(k, r.effW)
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

// run evaluates window wi on worker k: one fill per column, then every
// chain's filters over the same buffers, the survivors left in the window's
// slot for commit.
func (r *winRun) run(k, slot, wi int) error {
	s, out := r.ws[k], r.slots[slot]
	lo := wi * r.effW
	hi := min(lo+r.effW, r.t.Rows())
	for ci, c := range r.cols {
		if err := r.e.win.fill(r.t, c, s.chunkBuf[ci][:hi-lo], int64(lo), int64(hi)); err != nil {
			return err
		}
	}
	out.surv, out.ends = out.surv[:0], out.ends[:0]
	for ci, bound := range s.bound {
		sel := s.selWin[:hi-lo]
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
		n := len(out.surv)
		out.surv = slices.Grow(out.surv, len(sel))[:n+len(sel)]
		for j, pos := range sel {
			out.surv[n+j] = int32(lo) + pos
		}
		out.ends = append(out.ends, len(out.surv))
	}
	return nil
}

// commit hands window wi's survivors, left by run in its slot, to every
// chain.
func (r *winRun) commit(slot, wi int) error {
	out := r.slots[slot]
	start := 0
	for ci, c := range r.chains {
		end := out.ends[ci]
		if end > start {
			if err := c.emit(out.surv[start:end]); err != nil {
				return fault.Wrap(WindowStage, wi, err)
			}
		}
		start = end
	}
	return nil
}

// runWindows makes one pass over table t for all of chains, each a bottom-up
// selection chain over the table's rows. One window of the table's row domain
// at a time, the chains' columns are filled once each, and each chain
// filters the window. Windows are the items of a parallel.OrderedCtx pool of
// up to width workers, each with its own scratch and bound predicates, and
// every chain's emit receives the surviving global row indices window by
// window, in ascending order, from the calling goroutine. Each chain's counts
// end up holding the per-selection survivor counts — exactly the
// cardinalities full-column evaluation observes, at any width.
func (e *Engine) runWindows(ctx context.Context, t *storage.TableData, chains []*chainScan, orig bool, width int) error {
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
	run := &winRun{e: e, t: t, effW: effW, cols: cols, chains: chains}
	run.ws = win.workers(max(1, min(width, nWin)), effW)
	run.slots = win.slotsFor(len(run.ws))
	for _, s := range run.ws {
		if err := run.bind(s, orig); err != nil {
			return err
		}
	}
	if err := parallel.OrderedCtx(ctx, WindowStage, len(run.ws), nWin, run.run, run.commit); err != nil {
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
// however often it occurs: its survivors accumulate into one set, which every
// request that is this chain is answered with and every reduction that
// contains it reads.
type sharedChain struct {
	chainScan
	leaf  *relalg.View
	tRows int     // the leaf table's row count, known once its pass ran
	set   *RowSet // the chain's emit, sized for the leaf table by its pass
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
func (e *Engine) collectRowSets(ctx context.Context, reqs []RowSetRequest, orig bool, res *Result) ([]*RowSet, error) {
	ctx = e.poolCtx(ctx)
	sets := make([]*RowSet, len(reqs))
	chains := make(map[*relalg.View]*sharedChain)
	var tables []string
	byTable := make(map[string][]*sharedChain)

	chainOf := func(top, leaf *relalg.View, selects []*relalg.View) {
		if chains[top] != nil {
			return
		}
		c := &sharedChain{leaf: leaf}
		c.selects = selects
		chains[top] = c
		if byTable[leaf.Table] == nil {
			tables = append(tables, leaf.Table)
		}
		byTable[leaf.Table] = append(byTable[leaf.Table], c)
	}
	// findInner registers the chains under the joins of a reducible view,
	// where every selection is the top of one.
	var findInner func(v *relalg.View)
	findInner = func(v *relalg.View) {
		if v.Kind == relalg.SelectView {
			leaf, selects, _ := relalg.SelectChain(v)
			chainOf(v, leaf, selects)
			return
		}
		for _, in := range v.Inputs {
			findInner(in)
		}
	}
	var tops, reduced, materialized []int // requests answered after the passes
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
			sets[i] = fullRowSet(t.Rows())
		default:
			chainOf(rq.View, leaf, selects)
			tops = append(tops, i)
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
			c.tRows = t.Rows()
			c.set = &RowSet{bits: newBitset(c.tRows)}
			c.emit = c.set.add
			scans[i] = &c.chainScan
		}
		tm := e.m.opNS[relalg.SelectView].Start()
		if err := e.runWindows(ctx, t, scans, orig, e.width); err != nil {
			return nil, err
		}
		tm.Stop()
	}
	for _, i := range tops {
		c := chains[reqs[i].View]
		e.observeChain(c.leaf, &c.chainScan, c.tRows, res)
		sets[i] = c.set
	}

	for _, i := range reduced {
		tm := e.m.opNS[relalg.JoinView].Start()
		s, err := e.reduceRowSet(ctx, reqs[i], chains, res)
		if err != nil {
			return nil, err
		}
		tm.Stop()
		sets[i] = s
	}
	for _, i := range materialized {
		s, err := e.collectRows(reqs[i].View, reqs[i].Table, orig, res)
		if err != nil {
			return nil, err
		}
		e.m.materialized.Inc()
		sets[i] = s
	}
	return sets, nil
}

// RowSet is a set of one base table's row indices, as CollectRowSetsCtx
// returns it: a bitset over the table's rows and the number of bits set. A
// set may answer several requests and is read-only. Consumers fold it into
// their masks with OrMasks.
type RowSet struct {
	bits bitset
	n    int
}

// fullRowSet returns the set of all n rows of a table.
func fullRowSet(n int) *RowSet { return &RowSet{bits: fullBitset(n), n: n} }

// add puts rows, none of them in the set yet, into it: the emit of a chain's
// table pass and the sink of a reduction's answer, which see every row once.
func (s *RowSet) add(rows []int32) error {
	for _, r := range rows {
		s.bits.set(int(r))
	}
	s.n += len(rows)
	return nil
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
// every set's rows of the chunk are folded in. It is a multiple of 64, so a
// chunk covers whole bitset words.
const maskChunkRows = 1 << 15

// OrMasks ORs bits[k] into masks[r] for every row r of sets[k]. The masks are
// folded chunk by chunk, each chunk of maskChunkRows entries an item of a
// parallel.ForEachCtx pool of up to width workers: a worker folds every set's
// words over its chunk before it takes another, so no two workers write one
// entry and a chunk is read from memory once for all the sets. A word with
// every bit set folds its 64 rows in one run. Every set must be over a table
// of len(masks) rows. The pool (stage "engine/masks") runs on ctx, so a
// cancellation stops it between chunks and its items reach ctx's registry;
// its error (a cancellation or a contained panic) is returned, and masks is
// then partly folded.
func OrMasks(ctx context.Context, masks []uint64, sets []*RowSet, bits []uint64, width int) error {
	chunks := (len(masks) + maskChunkRows - 1) / maskChunkRows
	return parallel.ForEachCtx(ctx, "engine/masks", width, chunks, func(c int) error {
		lo := c * maskChunkRows
		m := masks[lo:min(lo+maskChunkRows, len(masks))]
		for k, s := range sets {
			if s.Len() == 0 {
				continue
			}
			bit := bits[k]
			for wi, w := range s.bits[lo>>6 : (lo+len(m)+63)>>6] {
				base := wi << 6
				if w == ^uint64(0) {
					for r := base; r < base+64; r++ {
						m[r] |= bit
					}
					continue
				}
				for w != 0 {
					m[base+trailingZeros(w)] |= bit
					w &= w - 1
				}
			}
		}
		return nil
	})
}
