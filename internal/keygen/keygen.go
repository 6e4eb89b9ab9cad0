// Package keygen implements Mirage's key generator (Section 5): it
// populates every foreign-key column so that all join cardinality (JCC) and
// join distinct (JDC) constraints hold exactly.
//
// For each foreign-key column (a "unit", processed in the topological order
// computed by genplan):
//
//	CS — compute join statuses: every join's PK-side and FK-side input view
//	     is executed on the partially generated database, yielding per-row
//	     visibility bits; rows sharing a status vector form a partition
//	     (Section 5.2 step 1).
//	CP — the populating rules (Equations 3–5) plus the composability,
//	     expressibility and coverability constraints range over per-
//	     partition-pair (x, d, f) values, solved once per unit: min-conflicts
//	     local search on the x-system, then a constructive distinct/fresh
//	     assignment; residuals are clamped by Section 6's resize rule
//	     (Section 5.2 steps 2–3; the paper hands each batch to a CP solver).
//	PF — the solution is written in one pass over each T partition's rows,
//	     cells taken in order (north-west corner rule), with globally
//	     disjoint distinct-key allocations so every JDC is met exactly.
package keygen

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Config tunes the key generator.
type Config struct {
	// BatchSize is ignored: every unit's column is populated in one pass.
	// The field stays because benchmark/replay.go sets it.
	BatchSize int64
	// Seed drives random choices (free-row fill). Every random stream is
	// derived per unit from Seed and the unit's key, table.fk_col, never from
	// a shared sequential source, so unit execution order cannot change the
	// generated bytes.
	Seed int64
	// Parallelism is the number of workers populating independent FK units
	// of one dependency wave concurrently. Values <= 1 populate
	// sequentially; the generated database is byte-identical either way.
	Parallelism int
	// WaveDone, when non-nil, is called after each dependency wave's FK
	// columns have been committed to the database, with the 0-based wave
	// index. The out-of-core pipeline uses it to start streaming tables
	// whose last FK unit just landed, overlapping export I/O with the next
	// wave's solves. An error aborts population.
	WaveDone func(wave int) error
	// Window, when non-nil, configures every worker engine's table passes
	// (engine.NewWindowed): join-constraint selections evaluate over row
	// windows regenerated through the configured chunk sources, so the
	// database may omit predicate columns entirely
	// (genplan.RetainedColumnsWindowed). Nil reads every column from storage
	// at the default window. The generated bytes are identical to
	// full-column evaluation at any window size.
	Window *engine.WindowConfig
}

// DefaultBatchSize is read by nothing in the pipeline. The constant stays
// because benchmark/replay.go passes it.
const DefaultBatchSize = 70_000

// Stats aggregates stage timings for the Fig. 15 experiment.
type Stats struct {
	CSTime     time.Duration // compute join statuses
	CPTime     time.Duration // constraint solving, summed over every worker that ran an attempt
	PFTime     time.Duration // populate foreign keys
	CPRounds   int           // solved units, one population pass each
	Partitions int
	Cells      int
	// Resized counts join constraints clamped to the achievable range
	// (Section 6: when sampling or value ties make an input view deviate,
	// n_jcc/n_jdc are resized to the nearest feasible values, bounding the
	// relative error by the input deviation).
	Resized int
	// Restarts counts local-search restarts beyond each unit's first
	// attempt (the x-system re-seeds its repair up to 8 times).
	Restarts int
	// CPBudget is always 0: it counted per-batch CP searches that ran out
	// of node budget, and no search with a budget is left. The field stays
	// because benchmark/replay.go reads it.
	CPBudget int
	// Degradations itemizes every fallback above per FK unit, in unit
	// order — the operator-facing ledger surfaced as Result.Degradations.
	Degradations []Degradation
}

// Degradation records one graceful-degradation event of the key generator.
type Degradation struct {
	// Unit is the FK unit ("table.fk_col") the event occurred in.
	Unit string
	// Kind is the fallback taken: "resize" (constraints clamped to their
	// achievable range) or "restarts" (x-system local-search restarts
	// beyond the first attempt).
	Kind string
	// Count is the number of occurrences within the unit.
	Count int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.CSTime += s2.CSTime
	s.CPTime += s2.CPTime
	s.PFTime += s2.PFTime
	s.CPRounds += s2.CPRounds
	s.Partitions += s2.Partitions
	s.Cells += s2.Cells
	s.Resized += s2.Resized
	s.Restarts += s2.Restarts
	s.Degradations = append(s.Degradations, s2.Degradations...)
}

// noteDegradations converts the unit-local counters into per-unit ledger
// entries; populateUnit calls it once, after the unit completes.
func (s *Stats) noteDegradations(unit string) {
	for _, d := range []Degradation{
		{Unit: unit, Kind: "resize", Count: s.Resized},
		{Unit: unit, Kind: "restarts", Count: s.Restarts},
	} {
		if d.Count > 0 {
			s.Degradations = append(s.Degradations, d)
		}
	}
}

// Populate fills every foreign-key column of db following the problem's
// unit schedule, executed wave by wave: all units of one dependency wave
// (genplan.Problem.Waves) are mutually independent and run on up to
// cfg.Parallelism workers. The workers a wave leaves idle go to its units'
// CS stage: each unit evaluates its join input views, folds its status masks
// and partitions them on width = workers / units-in-wave goroutines (at least
// one), so a wave of one unit uses every worker. Once a unit's CS stage ends,
// and once a worker finds no unit left, those workers become the wave's
// spares, and a unit's CP stage runs its later restart attempts ahead on
// them (solveX). A worker is in at most one of these roles at a time, so no
// more than cfg.Parallelism goroutines work at once. Non-key columns must
// already be materialized and selection parameters instantiated.
//
// Determinism: while a wave runs, the database is only read — each unit
// computes its FK column into a private slice, and the slices are committed
// in unit order after the wave joins. Together with per-unit seed
// derivation this makes the populated database byte-identical at any worker
// count. Stats are likewise merged in unit order from per-unit locals.
func Populate(ctx context.Context, cfg Config, prob *genplan.Problem, db *storage.DB) (*Stats, error) {
	// The vectorized engine keeps per-instance scratch buffers, so each wave
	// worker needs its own; engines are cheap (an owner map over the schema).
	workers := parallel.Workers(cfg.Parallelism)
	reg := obs.From(ctx)
	var win engine.WindowConfig
	if cfg.Window != nil {
		win = *cfg.Window
	}
	engines := make([]*engine.Engine, workers)
	for w := range engines {
		eng, err := engine.NewWindowed(db, win)
		if err != nil {
			return nil, err
		}
		eng.SetRegistry(reg)
		engines[w] = eng
	}
	total := &Stats{}
	stageSpan := obs.FromContext(ctx)
	for wi, wave := range prob.Waves() {
		var waveSpan *obs.Span
		if stageSpan != nil {
			waveSpan = stageSpan.Child("wave:" + strconv.Itoa(wi))
		}
		reg.Counter("keygen_waves_total").Inc()
		reg.Counter("keygen_units_total").Add(int64(len(wave)))
		stats := make([]*Stats, len(wave))
		cols := make([][]int64, len(wave))
		width := max(1, workers/len(wave))
		for _, eng := range engines {
			eng.SetWidth(width)
		}
		// Every unit running holds width workers; the rest start as spares.
		pool := &spares{}
		pool.put(workers - min(workers, len(wave))*width)
		err := parallel.ForEachWorkerIdleCtx(ctx, "keygen/wave", workers, len(wave), func(w, i int) error {
			var unitSpan *obs.Span
			if waveSpan != nil {
				unitSpan = waveSpan.Child("unit:" + wave[i].Key())
			}
			st, vals, err := populateUnit(ctx, cfg, engines[w], db, wave[i], width, pool)
			unitSpan.End()
			if err != nil {
				return fmt.Errorf("keygen: unit %s: %w", wave[i].Key(), err)
			}
			stats[i], cols[i] = st, vals
			return nil
		}, func(int) { pool.put(1) })
		waveSpan.End()
		// Commit whatever completed (sequential runs have already written
		// earlier units when a later one fails; parallel runs match that),
		// in unit order for deterministic stats accumulation.
		for i, u := range wave {
			if cols[i] != nil {
				db.Table(u.Table).SetCol(u.FKCol, cols[i])
			}
			if stats[i] != nil {
				for _, d := range stats[i].Degradations {
					reg.Events().Emit(obs.Event{
						Type: obs.EventDegradation, Unit: d.Unit, Kind: d.Kind, Count: int64(d.Count),
					})
				}
				total.Add(*stats[i])
			}
		}
		if err != nil {
			return nil, err
		}
		reg.Events().Emit(obs.Event{Type: obs.EventWaveDone, Wave: wi, Units: len(wave)})
		if cfg.WaveDone != nil {
			if err := cfg.WaveDone(wi); err != nil {
				return nil, err
			}
		}
	}
	return total, nil
}

// spares counts the workers of one keygen wave that run neither a unit nor
// a unit's CS stage. solveX takes them one at a time to run restart attempts
// ahead and puts each back when its attempt ends. A nil *spares holds none.
type spares struct{ n atomic.Int64 }

// take claims one spare worker, if there is one.
func (s *spares) take() bool {
	if s == nil {
		return false
	}
	for {
		n := s.n.Load()
		if n <= 0 {
			return false
		}
		if s.n.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// put adds n spare workers.
func (s *spares) put(n int) {
	if s != nil {
		s.n.Add(int64(n))
	}
}

// part is one row partition: all rows sharing a join-visibility mask.
type part struct {
	mask uint64
	rows []int32
}

// populateUnit computes one FK column, its CS stage on width goroutines. It
// then puts all but one of those workers in pool, and its CP stage runs
// restart attempts ahead on whatever pool holds. It only reads the database
// — the returned value slice is the column content the caller commits after
// the unit's wave joins, keeping wave execution free of concurrent writes.
func populateUnit(ctx context.Context, cfg Config, eng *engine.Engine, db *storage.DB, unit *genplan.Unit, width int, pool *spares) (*Stats, []int64, error) {
	st := &Stats{}
	tData := db.Table(unit.Table)
	fkColMeta, _ := tData.Meta.Column(unit.FKCol)
	sData := db.Table(fkColMeta.Refs)
	sRows, tRows := sData.Rows(), tData.Rows()

	joins := unit.Joins
	m := len(joins)
	if m > 64 {
		return nil, nil, fmt.Errorf("%d joins exceed the 64-bit status vector", m)
	}
	if m == 0 {
		// Unconstrained FK column: uniform fill over the referenced PKs.
		pool.put(width - 1)
		start := time.Now()
		vals := fillUniform(cfg, tRows, unit.Key(), int64(sRows))
		st.PFTime = time.Since(start)
		return st, vals, nil
	}

	// CS stage: execute every join's input views, build status vectors.
	// Joins whose constraints are implied (full-table left view with the
	// join cardinality forced to the right view's size) carry no
	// information and get no bit; joins with identical views and
	// constraints are duplicates from equivalent rewritten trees, and
	// dedupJoins drops their bits once the masks are partitioned. Both keep
	// the status vectors — and hence the partition count — minimal.
	start := time.Now()
	// One engine call for the whole unit: a windowed engine scans each base
	// table once for all the views' selection chains over it.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	reqs := make([]engine.RowSetRequest, 0, 2*len(joins))
	for _, jc := range joins {
		reqs = append(reqs,
			engine.RowSetRequest{View: jc.LeftView, Table: jc.Spec.PKTable},
			engine.RowSetRequest{View: jc.RightView, Table: jc.Spec.FKTable})
	}
	sets, err := eng.CollectRowSetsCtx(ctx, reqs, false)
	if err != nil {
		return nil, nil, fmt.Errorf("join input views: %w", err)
	}
	var (
		folded               []*genplan.JoinCons
		lsets, rsets         []*engine.RowSet
		bits                 []uint64
		lsetSizes, rsetSizes []int64
	)
	for k, jc := range joins {
		lset, rset := sets[2*k], sets[2*k+1]
		if lset.Len() == sRows && jc.JDC == relalg.CardUnknown &&
			(jc.JCC == relalg.CardUnknown || jc.JCC >= int64(rset.Len())) {
			if jc.JCC != relalg.CardUnknown && jc.JCC != int64(rset.Len()) {
				st.Resized++ // unreachable target forced to |V̂_r| (Section 6)
			}
			continue // every fk matches; nothing to enforce
		}
		bits = append(bits, uint64(1)<<uint(len(folded)))
		folded = append(folded, jc)
		lsets, rsets = append(lsets, lset), append(rsets, rset)
		lsetSizes = append(lsetSizes, int64(lset.Len()))
		rsetSizes = append(rsetSizes, int64(rset.Len()))
	}
	if len(folded) == 0 {
		pool.put(width - 1)
		vals := fillUniform(cfg, tRows, unit.Key(), int64(sRows))
		st.PFTime = time.Since(start)
		st.noteDegradations(unit.Key())
		return st, vals, nil
	}
	// Fold the k-th such join's input rows into bit k of the status masks.
	sMask, tMask := make([]uint64, sRows), make([]uint64, tRows)
	engine.OrMasks(sMask, lsets, bits, width)
	engine.OrMasks(tMask, rsets, bits, width)
	sParts := partition(sMask, width)
	tParts := partition(tMask, width)
	kept := dedupJoins(folded, sParts, tParts)
	m = len(kept)
	joins = make([]*genplan.JoinCons, m)
	for q, k := range kept {
		joins[q] = folded[k]
		lsetSizes[q], rsetSizes[q] = lsetSizes[k], rsetSizes[k]
	}
	lsetSizes, rsetSizes = lsetSizes[:m], rsetSizes[:m]
	st.Partitions = len(sParts) + len(tParts)
	st.CSTime = time.Since(start)
	pool.put(width - 1)

	njcc, njdc := resizeConstraints(st, joins, lsetSizes, rsetSizes, int64(sRows))

	// CP stage: the aggregated x-system by local search, then the
	// distinct/fresh system with x fixed. The only error is a context
	// interruption.
	start = time.Now()
	model := buildModel(joins, sParts, tParts, njcc, njdc)
	st.Cells = len(model.cells)
	sol, err := model.solveTwoPhase(ctx, cfg, pool, st)
	if err != nil {
		return nil, nil, err
	}
	st.CPTime += time.Since(start)

	// PF stage.
	vals, err := populateFKs(st, tRows, model, sol)
	if err != nil {
		return nil, nil, err
	}
	st.noteDegradations(unit.Key())
	return st, vals, nil
}

// dedupJoins returns the indexes of the joins to keep, ascending: join j is
// dropped when an earlier kept join i has the same JCC and JDC and the same
// rows in both input views — exactly when bits i and j agree in every S and
// every T partition mask, because every row lies in one partition. The parts'
// masks are then renumbered to the kept joins (the q-th kept join's bit is
// bit q) and the parts re-sorted by them: renumbering keeps the partitioning
// but not the mask order, and both are what folding only the kept joins
// would have produced.
func dedupJoins(joins []*genplan.JoinCons, sParts, tParts []*part) []int {
	var kept []int
	for j, jc := range joins {
		dup := slices.ContainsFunc(kept, func(i int) bool {
			return joins[i].JCC == jc.JCC && joins[i].JDC == jc.JDC &&
				sameBits(sParts, i, j) && sameBits(tParts, i, j)
		})
		if !dup {
			kept = append(kept, j)
		}
	}
	if len(kept) == len(joins) {
		return kept
	}
	for _, parts := range [][]*part{sParts, tParts} {
		for _, p := range parts {
			var mk uint64
			for q, k := range kept {
				mk |= (p.mask >> uint(k) & 1) << uint(q)
			}
			p.mask = mk
		}
		slices.SortFunc(parts, func(a, b *part) int { return cmp.Compare(a.mask, b.mask) })
	}
	return kept
}

// sameBits reports whether bits i and j agree in every part's mask.
func sameBits(parts []*part, i, j int) bool {
	for _, p := range parts {
		if p.mask>>uint(i)&1 != p.mask>>uint(j)&1 {
			return false
		}
	}
	return true
}

// partitionRangeRows is the fewest rows partition gives one goroutine.
const partitionRangeRows = 1 << 14

// partition groups rows by status mask. Partition order is deterministic:
// ascending mask, ascending rows inside each. The rows are split into up to
// width contiguous ranges, one goroutine each: a counting pass sizes every
// part per range, the parts' row lists are carved, exact-size, out of one
// slice with each range's rows placed after those of the ranges before it,
// and a second pass writes them. Equal masks come in long runs (a mask
// changes where a selection's or a join's row set starts or ends), so a
// range touches its map only where the mask differs from the previous row's.
func partition(masks []uint64, width int) []*part {
	width = max(1, min(width, len(masks)/partitionRangeRows))
	counts := make([]map[uint64]int, width)
	inRanges(len(masks), width, func(k, lo, hi int) {
		c := make(map[uint64]int)
		for r := lo; r < hi; {
			mk, run := masks[r], r
			for r < hi && masks[r] == mk {
				r++
			}
			c[mk] += r - run
		}
		counts[k] = c
	})
	var order []uint64
	for _, c := range counts {
		for mk := range c {
			order = append(order, mk)
		}
	}
	slices.Sort(order)
	order = slices.Compact(order)
	index := make(map[uint64]int, len(order))
	next := make([][]int, width) // next[k][p]: where range k's next row of part p goes
	for k := range next {
		next[k] = make([]int, len(order))
	}
	rows := make([]int32, len(masks))
	parts := make([]*part, len(order))
	pos := 0
	for p, mk := range order {
		index[mk] = p
		lo := pos
		for k, c := range counts {
			next[k][p] = pos
			pos += c[mk]
		}
		parts[p] = &part{mask: mk, rows: rows[lo:pos:pos]}
	}
	inRanges(len(masks), width, func(k, lo, hi int) {
		nx := next[k]
		p := -1
		for r := lo; r < hi; r++ {
			if p < 0 || masks[r] != order[p] {
				p = index[masks[r]]
			}
			rows[nx[p]] = int32(r)
			nx[p]++
		}
	})
	return parts
}

// inRanges runs fn(k, lo, hi) over width contiguous ranges [lo, hi) that
// split [0, n), one goroutine each, and returns when all have.
func inRanges(n, width int, fn func(k, lo, hi int)) {
	var wg sync.WaitGroup
	for k := 1; k < width; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, k*n/width, (k+1)*n/width)
		}()
	}
	fn(0, 0, n/width)
	wg.Wait()
}

// fillUniform returns a deterministic uniform FK distribution over n rows.
// The stream is seeded per unit from a hash of its key, table.fk_col (never
// shared), so concurrent units cannot perturb each other's draws and no two
// units draw the same keys.
func fillUniform(cfg Config, n int, unit string, sRows int64) []int64 {
	vals := make([]int64, n)
	if sRows > 0 {
		h := fnv.New64a()
		h.Write([]byte(unit))
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64())))
		for i := range vals {
			vals[i] = rng.Int63n(sRows) + 1
		}
	}
	return vals
}

// resizeConstraints clamps each join's constraints to the range achievable
// on the synthetic input views (Section 6, Equation 7): when an input view
// deviates from its original size — possible only through arithmetic-
// predicate sampling or value ties — the nearest feasible n_jcc/n_jdc is
// enforced instead, so the join's relative error never exceeds the input
// deviation. With exact inputs this is the identity.
func resizeConstraints(st *Stats, joins []*genplan.JoinCons, lsetSizes, rsetSizes []int64, sRows int64) (njcc, njdc []int64) {
	njcc = make([]int64, len(joins))
	njdc = make([]int64, len(joins))
	for k, jc := range joins {
		jcc, jdc := jc.JCC, jc.JDC
		if jcc != relalg.CardUnknown {
			if jcc > rsetSizes[k] {
				jcc = rsetSizes[k]
			}
			// A right-view row can only miss the join if some referenced
			// key lies outside the left view.
			if lsetSizes[k] == sRows && jcc < rsetSizes[k] {
				jcc = rsetSizes[k]
			}
			if lsetSizes[k] == 0 {
				jcc = 0
			}
		}
		if jdc != relalg.CardUnknown {
			if jdc > lsetSizes[k] {
				jdc = lsetSizes[k]
			}
			if jcc != relalg.CardUnknown && jdc > jcc {
				jdc = jcc
			}
			if jcc != relalg.CardUnknown && jcc > 0 && jdc == 0 {
				jdc = 1
			}
			if jdc > rsetSizes[k] {
				jdc = rsetSizes[k]
			}
		}
		if jcc != jc.JCC || jdc != jc.JDC {
			st.Resized++
		}
		njcc[k], njdc[k] = jcc, jdc
	}
	return njcc, njdc
}
