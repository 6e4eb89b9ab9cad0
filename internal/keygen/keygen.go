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
	"math/rand"
	"slices"
	"strconv"
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
	// derived per unit from Seed and the unit's FK column, never from a
	// shared sequential source, so unit execution order cannot change the
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
	// Window, when non-nil, makes every worker engine windowed
	// (engine.NewWindowed): join-constraint selections evaluate over row
	// windows regenerated through the configured chunk sources, so the
	// database may omit predicate columns entirely
	// (genplan.RetainedColumnsWindowed). The generated bytes are identical
	// to full-column evaluation at any window size.
	Window *engine.WindowConfig
}

// DefaultBatchSize is read by nothing in the pipeline. The constant stays
// because benchmark/replay.go passes it.
const DefaultBatchSize = 70_000

// Stats aggregates stage timings for the Fig. 15 experiment.
type Stats struct {
	CSTime     time.Duration // compute join statuses
	CPTime     time.Duration // constraint solving (once per unit)
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
	// Kind is "resize" or "restarts".
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
// entries; populateUnit calls it once, after the unit completes. Each entry
// is mirrored into the obs registry as keygen_degradations_total{kind=...},
// so the run report and the Degradations slice speak one vocabulary — the
// slice API stays intact for callers, the counters serve exporters.
func (s *Stats) noteDegradations(unit string) {
	for _, d := range []Degradation{
		{Unit: unit, Kind: "resize", Count: s.Resized},
		{Unit: unit, Kind: "restarts", Count: s.Restarts},
	} {
		if d.Count > 0 {
			s.Degradations = append(s.Degradations, d)
			obs.Active().CounterL("keygen_degradations_total", "kind", d.Kind).Add(int64(d.Count))
			obs.Active().Events().Emit(obs.Event{
				Type: obs.EventDegradation, Unit: d.Unit, Kind: d.Kind, Count: int64(d.Count),
			})
		}
	}
}

// observe mirrors one completed unit's stage timings and footprint into the
// obs registry; a disabled registry makes every call a no-op.
func (s *Stats) observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Histogram("keygen_cs_ns").Observe(int64(s.CSTime))
	reg.Histogram("keygen_cp_ns").Observe(int64(s.CPTime))
	reg.Histogram("keygen_pf_ns").Observe(int64(s.PFTime))
	reg.Counter("keygen_partitions_total").Add(int64(s.Partitions))
	reg.Counter("keygen_cells_total").Add(int64(s.Cells))
	reg.Counter("keygen_restarts_total").Add(int64(s.Restarts))
	// Per-unit restart histogram: warm-chained attempts should keep this
	// concentrated at zero; a drifting distribution means the local search
	// is re-seeding more than the warm start saves.
	reg.Histogram("keygen_warm_restarts").Observe(int64(s.Restarts))
}

// Populate fills every foreign-key column of db following the problem's
// unit schedule, executed wave by wave: all units of one dependency wave
// (genplan.Problem.Waves) are mutually independent and run on up to
// cfg.Parallelism workers. Non-key columns must already be materialized and
// selection parameters instantiated.
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
	engines := make([]*engine.Engine, workers)
	defer func() {
		for _, eng := range engines {
			if eng != nil {
				eng.Close()
			}
		}
	}()
	for w := range engines {
		var (
			eng *engine.Engine
			err error
		)
		if cfg.Window != nil {
			eng, err = engine.NewWindowed(db, *cfg.Window)
		} else {
			eng, err = engine.New(db)
		}
		if err != nil {
			return nil, err
		}
		engines[w] = eng
	}
	total := &Stats{}
	reg := obs.Active()
	stageSpan := obs.FromContext(ctx)
	for wi, wave := range prob.Waves() {
		var waveSpan *obs.Span
		if stageSpan != nil {
			waveSpan = stageSpan.Child("wave:" + strconv.Itoa(wi))
			reg.Counter("keygen_waves_total").Inc()
			reg.Counter("keygen_units_total").Add(int64(len(wave)))
		}
		stats := make([]*Stats, len(wave))
		cols := make([][]int64, len(wave))
		err := parallel.ForEachWorkerCtx(ctx, "keygen/wave", workers, len(wave), func(w, i int) error {
			var unitSpan *obs.Span
			if waveSpan != nil {
				unitSpan = waveSpan.Child("unit:" + wave[i].Key())
			}
			st, vals, err := populateUnit(ctx, cfg, engines[w], db, wave[i])
			unitSpan.End()
			if err != nil {
				return fmt.Errorf("keygen: unit %s: %w", wave[i].Key(), err)
			}
			stats[i], cols[i] = st, vals
			return nil
		})
		waveSpan.End()
		// Commit whatever completed (sequential runs have already written
		// earlier units when a later one fails; parallel runs match that),
		// in unit order for deterministic stats accumulation.
		for i, u := range wave {
			if cols[i] != nil {
				db.Table(u.Table).SetCol(u.FKCol, cols[i])
			}
			if stats[i] != nil {
				stats[i].observe(reg)
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

// part is one row partition: all rows sharing a join-visibility mask.
type part struct {
	mask uint64
	rows []int32
}

// populateUnit computes one FK column. It only reads the database — the
// returned value slice is the column content the caller commits after the
// unit's wave joins, keeping wave execution free of concurrent writes.
func populateUnit(ctx context.Context, cfg Config, eng *engine.Engine, db *storage.DB, unit *genplan.Unit) (*Stats, []int64, error) {
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
		start := time.Now()
		vals := fillUniform(cfg, tRows, unit.FKCol, int64(sRows))
		st.PFTime = time.Since(start)
		return st, vals, nil
	}

	// CS stage: execute every join's input views, build status vectors.
	// Joins whose constraints are implied (full-table left view with the
	// join cardinality forced to the right view's size) carry no
	// information, and joins with identical views and constraints are
	// duplicates from equivalent rewritten trees: both are dropped, which
	// keeps the status vectors — and hence the partition count — minimal.
	start := time.Now()
	type viewSets struct {
		lset, rset *engine.RowSet
	}
	var (
		kept     []*genplan.JoinCons
		keptSets []viewSets
		seen     = make(map[setsSig]bool)
	)
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
	open, err := eng.CollectRowSetsCtx(ctx, reqs, false)
	if err != nil {
		return nil, nil, fmt.Errorf("join input views: %w", err)
	}
	// Row sets may be disk-spilled; release every set on any exit so no
	// spill file outlives the unit (Release is idempotent — sets folded
	// into the masks below are released early to cap live memory).
	defer func() {
		for _, s := range open {
			s.Release()
		}
	}()
	for k, jc := range joins {
		lset, rset := open[2*k], open[2*k+1]
		if lset.Len() == sRows && jc.JDC == relalg.CardUnknown &&
			(jc.JCC == relalg.CardUnknown || jc.JCC >= int64(rset.Len())) {
			if jc.JCC != relalg.CardUnknown && jc.JCC != int64(rset.Len()) {
				st.Resized++ // unreachable target forced to |V̂_r| (Section 6)
			}
			lset.Release()
			rset.Release()
			continue // every fk matches; nothing to enforce
		}
		sig, err := setsSignatureSets(lset, rset, jc.JCC, jc.JDC)
		if err != nil {
			return nil, nil, err
		}
		if seen[sig] {
			lset.Release()
			rset.Release()
			continue
		}
		seen[sig] = true
		kept = append(kept, jc)
		keptSets = append(keptSets, viewSets{lset, rset})
	}
	joins = kept
	m = len(joins)
	if m == 0 {
		vals := fillUniform(cfg, tRows, unit.FKCol, int64(sRows))
		st.PFTime = time.Since(start)
		st.noteDegradations(unit.Key())
		return st, vals, nil
	}
	sMask := make([]uint64, sRows)
	tMask := make([]uint64, tRows)
	rsetSizes := make([]int64, m)
	lsetSizes := make([]int64, m)
	for k := range joins {
		ks := keptSets[k]
		bit := uint64(1) << uint(k)
		if err := ks.lset.ForEach(func(r int32) { sMask[r] |= bit }); err != nil {
			return nil, nil, err
		}
		if err := ks.rset.ForEach(func(r int32) { tMask[r] |= bit }); err != nil {
			return nil, nil, err
		}
		rsetSizes[k] = int64(ks.rset.Len())
		lsetSizes[k] = int64(ks.lset.Len())
		ks.lset.Release()
		ks.rset.Release()
	}
	sParts := partition(sMask)
	tParts := partition(tMask)
	st.Partitions = len(sParts) + len(tParts)
	st.CSTime = time.Since(start)

	njcc, njdc := resizeConstraints(st, joins, lsetSizes, rsetSizes, int64(sRows))

	// CP stage: the aggregated x-system by local search, then the
	// distinct/fresh system with x fixed. The only error is a context
	// interruption.
	start = time.Now()
	model := buildModel(joins, sParts, tParts, njcc, njdc)
	st.Cells = len(model.cells)
	sol, restarts, nResized, err := model.solveTwoPhase(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	st.Resized += nResized
	st.Restarts += restarts
	st.CPTime = time.Since(start)

	// PF stage.
	vals, err := populateFKs(st, tRows, model, sol)
	if err != nil {
		return nil, nil, err
	}
	st.noteDegradations(unit.Key())
	return st, vals, nil
}

// setsSig is a comparable fingerprint of a join's view row sets plus
// constraints, used as the dedup map key. The exact set lengths and
// constraint values are carried as fields, so the only way two distinct
// joins collide is a 64-bit FNV collision between equal-length row sets
// with equal constraints — and the consequence of such a collision is
// merely dropping one of two nearly identical join constraints, not a
// correctness failure. This replaces the previous fmt.Sprintf string key:
// the struct is hashed inline by the map, with zero allocations on the
// dedup path.
type setsSig struct {
	h      uint64
	nl, nr int32
	jcc    int64
	jdc    int64
}

// setsSignature fingerprints a join's view row sets plus constraints for
// duplicate elimination. FNV-1a folded over whole row indices (one
// xor/multiply per element) with a separator between the two sets.
func setsSignature(lset, rset []int32, jcc, jdc int64) setsSig {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, r := range lset {
		h = (h ^ uint64(uint32(r))) * prime64
	}
	h = (h ^ 0xffffffff) * prime64 // separator: no row index reaches 2^32-1
	for _, r := range rset {
		h = (h ^ uint64(uint32(r))) * prime64
	}
	return setsSig{h: h, nl: int32(len(lset)), nr: int32(len(rset)), jcc: jcc, jdc: jdc}
}

// setsSignatureSets is setsSignature over (possibly disk-spilled) row sets:
// same FNV-1a fold, streamed through RowSet.ForEach, so a spilled set never
// materializes just to be fingerprinted.
func setsSignatureSets(lset, rset *engine.RowSet, jcc, jdc int64) (setsSig, error) {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	if err := lset.ForEach(func(r int32) {
		h = (h ^ uint64(uint32(r))) * prime64
	}); err != nil {
		return setsSig{}, err
	}
	h = (h ^ 0xffffffff) * prime64 // separator: no row index reaches 2^32-1
	if err := rset.ForEach(func(r int32) {
		h = (h ^ uint64(uint32(r))) * prime64
	}); err != nil {
		return setsSig{}, err
	}
	return setsSig{h: h, nl: int32(lset.Len()), nr: int32(rset.Len()), jcc: jcc, jdc: jdc}, nil
}

// partition groups rows by status mask. Partition order is deterministic:
// ascending mask, ascending rows inside each. Equal masks come in long runs
// (a mask changes where a selection's or a join's row set starts or ends),
// so the part is looked up only when the mask differs from the previous
// row's; a counting pass sizes every part, and the parts' row lists are
// carved, exact-size, out of one slice.
func partition(masks []uint64) []*part {
	byMask := make(map[uint64]int)
	var parts []*part
	var counts []int
	find := func(mk uint64) int {
		pi, ok := byMask[mk]
		if !ok {
			pi = len(parts)
			byMask[mk] = pi
			parts = append(parts, &part{mask: mk})
			counts = append(counts, 0)
		}
		return pi
	}
	pi := -1
	for _, mk := range masks {
		if pi < 0 || mk != parts[pi].mask {
			pi = find(mk)
		}
		counts[pi]++
	}
	rows := make([]int32, len(masks))
	for i, p := range parts {
		p.rows, rows = rows[:0:counts[i]], rows[counts[i]:]
	}
	pi = -1
	for r, mk := range masks {
		if pi < 0 || mk != parts[pi].mask {
			pi = byMask[mk]
		}
		parts[pi].rows = append(parts[pi].rows, int32(r))
	}
	slices.SortFunc(parts, func(a, b *part) int { return cmp.Compare(a.mask, b.mask) })
	return parts
}

// fillUniform returns a deterministic uniform FK distribution over n rows.
// The stream is seeded per unit (never shared), so concurrent units cannot
// perturb each other's draws.
func fillUniform(cfg Config, n int, fkCol string, sRows int64) []int64 {
	vals := make([]int64, n)
	if sRows > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(len(fkCol))))
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
