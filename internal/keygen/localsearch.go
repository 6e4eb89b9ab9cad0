package keygen

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

const unknownCard = -1

// xTarget is one join's requirement on the x-system.
type xTarget struct {
	value int64
	exact bool
}

// solveXLocal computes the x-system by min-conflicts local search.
//
// The x-system couples per-T-partition coverage equalities with per-join
// sums; systematic search struggles on such systems (dense coupling, heavy
// value symmetry), while local repair converges almost immediately: moves
// shift mass between two cells of one T partition, preserving coverage by
// construction. Besides the exact JCC sums, the search maintains each JDC
// join's *capacity* — sum of min(x, |S_i|) over its cells must reach n_jdc,
// or the distinct/fresh system downstream cannot spread keys widely enough.
//
// Attempt 0 starts from the proportional initial state; every later attempt
// warm-starts from the best assignment so far (with a seeded
// coverage-preserving perturbation) instead of rebuilding it from scratch —
// successive attempts perturb rather than replace the near-solution, which
// converges in a fraction of the iterations a cold restart needs. Later
// attempts run ahead on the spare workers of pool (see solveX).
//
// The returned assignment always satisfies coverage exactly; per-join
// residuals are returned so the caller can clamp affected constraints
// (Section 6's resize-and-bound policy), together with the restart attempts
// consumed (≥ 1) for the degradation ledger. Attempts stop once one meets
// the x-system's lower bound (lowerBound), which no assignment beats. The
// repair loop polls ctx, so a deadline or cancellation lands between (or
// inside) attempts; only context interruption yields a non-nil error.
func (kg *kgModel) solveXLocal(ctx context.Context, cfg Config, pool *spares) (*xSolve, error) {
	return kg.solveX(ctx, cfg, pool, (*repairState).repair, (*kgModel).lowerBound)
}

// maxAttempts bounds the repair attempts of one x-system.
const maxAttempts = 8

// xSolve is what solveX returns.
type xSolve struct {
	x, residual []int64
	// errs holds each committed attempt's best error, in attempt order;
	// len(errs) is the attempt count.
	errs []int64
	// frozenExits counts the committed attempts that ended frozen.
	frozenExits int
	// bound is the x-system's lower bound, computed once attempt 0
	// committed an error above 0, and 0 otherwise.
	bound int64
	// helperTime sums the run time of every attempt a spare worker ran,
	// committed or discarded.
	helperTime time.Duration
	// ahead counts the committed attempts that started before an earlier
	// attempt was committed; discarded counts the attempts thrown away.
	ahead, discarded int
}

// attemptRun is one repair attempt in flight or finished.
type attemptRun struct {
	a     int
	st    *repairState
	ahead bool // started while an earlier attempt was uncommitted
	snap  bool // started from the best so far of the attempt before it
	// start is the assignment a later attempt warm-starts from (nil for
	// attempt 0), the attempt's own copy.
	start  []int64
	err    int64 // repair's best error
	frozen int   // frozen exits of this attempt (0 or 1)
	// A spare worker's attempt runs on its own goroutine under its own
	// context: done is closed once it has finished, and busy and panicked
	// are set by then. The calling goroutine's attempts run inline and
	// have done == nil.
	done     chan struct{}
	cancel   context.CancelFunc
	busy     time.Duration
	panicked any
}

// finished reports whether r has run to its end.
func (r *attemptRun) finished() bool {
	if r.done == nil {
		return true
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// solveX is solveXLocal with the repair loop and the lower bound as
// parameters, so a test can run the same attempts, restarts and warm starts
// around another loop or without the bound.
//
// An attempt depends only on the assignment it starts from and its index:
// the rng is re-seeded from the index and warmStart copies the assignment.
// So while attempt a runs, attempts a+1, a+2, … can already run from the
// same bestX, on the calling goroutine and on workers taken from pool, each
// with its own repairState and its own copy of where it started. Attempts
// are committed in index order exactly as the sequential loop would: one is
// valid when it started from the bestX its turn sees. When an attempt
// strictly improves the best error, the attempts still uncommitted that did
// not start from the new bestX are cancelled, joined and thrown away, and the
// loop goes on from the new bestX. x, the residuals and the attempt count are
// therefore the sequential loop's at any number of spare workers; with none
// it is the sequential loop.
//
// An attempt the calling goroutine runs as the next to commit tells solveX
// (settle) once its best so far beats bestErr and has held for settleStale
// iterations. It will improve, so the attempts started after it are
// cancelled, and the next one starts on a spare worker from that best so
// far, which is usually the attempt's final best: an attempt's last
// improvement is followed by the whole stale limit. The calling goroutine
// then waits for it rather than run an attempt from a bestX it is likely
// to replace.
//
// When attempt 0 commits an error above 0, the calling goroutine computes
// bound(kg) once. The loop ends when the best error meets it, as it does at
// 0, and every later attempt's repair ends as soon as its error reaches it.
// Neither changes x or the residuals: no attempt can strictly improve on a
// lower bound, and repair keeps the first state that reaches its best error.
// Only the attempt count falls.
func (kg *kgModel) solveX(ctx context.Context, cfg Config, pool *spares, repair func(*repairState, context.Context) int64, bound func(*kgModel) int64) (*xSolve, error) {
	targets := make([]xTarget, len(kg.joins))
	for k := range kg.joins {
		switch {
		case kg.njcc[k] != unknownCard:
			targets[k] = xTarget{value: kg.njcc[k], exact: true}
		case kg.njdc[k] != unknownCard:
			targets[k] = xTarget{value: kg.njdc[k], exact: false}
		default:
			targets[k] = xTarget{value: 0, exact: false}
		}
	}
	st := kg.newRepairState(targets)
	free := []*repairState{st}
	floor := int64(0) // the lower bound once known: errors never fall below it
	state := func() (s *repairState) {
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
		} else {
			s = kg.newRepairState(targets)
		}
		s.floor, s.settle = floor, nil
		return s
	}
	bestX := make([]int64, len(kg.cells))
	bestErr := int64(1) << 60
	run := func(ctx context.Context, r *attemptRun) {
		r.st.rng = rand.New(rand.NewSource(cfg.Seed ^ (0x51ca1 + int64(r.a)*7919)))
		if r.a == 0 {
			r.st.initProportional()
		} else {
			r.st.warmStart(r.start)
		}
		exits := r.st.frozenExits
		r.err = repair(r.st, ctx)
		r.frozen = r.st.frozenExits - exits
	}
	// launch returns attempt a, to start from x, on a state of its own.
	launch := func(a int, x []int64, ahead bool) *attemptRun {
		r := &attemptRun{a: a, st: state(), ahead: ahead}
		if a > 0 {
			r.start = r.st.start
			copy(r.start, x)
		}
		return r
	}
	// goRun starts attempt a from x on a worker taken from pool, which gets
	// it back when the attempt ends.
	goRun := func(a int, x []int64) *attemptRun {
		r := launch(a, x, true)
		actx, cancel := context.WithCancel(ctx)
		r.done, r.cancel = make(chan struct{}), cancel
		go func() {
			start := time.Now()
			defer func() {
				r.panicked = recover()
				r.busy = time.Since(start)
				pool.put(1)
				close(r.done)
			}()
			run(actx, r)
		}()
		return r
	}
	res := &xSolve{}
	// pending holds the attempts started and not yet committed, in index
	// order, attempts next, next+1, ….
	var pending []*attemptRun
	// doomed holds cancelled attempts not yet joined.
	var doomed []*attemptRun
	// panicked is the first panic of a spare worker's attempt. It is
	// raised again on the calling goroutine, where the wave's worker pool
	// contains it, once the attempts still pending are joined.
	var panicked any
	// collect waits for r to end and frees its state.
	collect := func(r *attemptRun) {
		if r.done != nil {
			<-r.done
			res.helperTime += r.busy
			if panicked == nil {
				panicked = r.panicked
			}
		}
		free = append(free, r.st)
	}
	// discard cancels, joins and throws away rs.
	discard := func(rs []*attemptRun) {
		for _, r := range rs {
			if r.cancel != nil {
				r.cancel()
			}
			collect(r)
		}
		res.discarded += len(rs)
	}
	defer func() { // pending is empty unless ctx or a panic ends the loop
		discard(doomed)
		discard(pending)
	}()
	// settle runs on the calling goroutine, inside the repair of the
	// attempt it runs as next to commit, once that attempt's best so far
	// has beaten bestErr and stayed best for a while. The attempt will be
	// committed and replace bestX, so every attempt started after it is
	// cancelled, and the next one starts on a spare worker from the best so
	// far: usually the attempt's final best, in which case that attempt
	// commits as if it had started after this one.
	var own, spec *attemptRun
	var specErr int64
	settle := func(x []int64, err int64) {
		if (spec != nil && specErr == err) || own.a+1 == maxAttempts {
			return
		}
		for _, r := range pending[1:] {
			r.cancel()
		}
		doomed = append(doomed, pending[1:]...)
		pending, spec = pending[:1], nil
		if pool.take() {
			spec = goRun(own.a+1, x)
			spec.snap, specErr = true, err
			pending = append(pending, spec)
		}
	}
	next := 0 // the next attempt to commit
	for next < maxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The calling goroutine runs the lowest attempt not yet started,
		// spare workers the ones after it, all from bestX. Attempt 0
		// always improves on the initial bestErr, so nothing runs ahead of
		// it from bestX. An attempt that started from the best so far of
		// the one before it is waited for: it usually commits.
		own, spec = nil, nil
		launched := next + len(pending)
		if launched < maxAttempts && (len(pending) == 0 || !pending[0].snap) {
			own = launch(launched, bestX, launched > next)
			pending = append(pending, own)
			launched++
		}
		for next > 0 && launched < maxAttempts && pool.take() {
			pending = append(pending, goRun(launched, bestX))
			launched++
		}
		if own != nil {
			if !own.ahead && pool != nil {
				own.st.settle, own.st.beat = settle, bestErr
			}
			run(ctx, own)
			own.st.settle = nil
			discard(doomed)
			doomed = doomed[:0]
		} else {
			<-pending[0].done // the owner's attempts have all run
		}
		for len(pending) > 0 && pending[0].finished() {
			r := pending[0]
			pending = pending[1:]
			collect(r) // r.st stays unused until the next round of starts
			res.errs = append(res.errs, r.err)
			res.frozenExits += r.frozen
			if r.ahead {
				res.ahead++
			}
			next++
			if r.err < bestErr {
				bestErr = r.err
				copy(bestX, r.st.x)
				// Keep the attempts that started from the new bestX.
				keep := 0
				for keep < len(pending) && slices.Equal(pending[keep].start, bestX) {
					keep++
				}
				discard(pending[keep:])
				pending = pending[:keep]
			}
			if r.a == 0 && bestErr > 0 {
				floor = bound(kg)
				res.bound = floor
			}
			if bestErr <= floor {
				next = maxAttempts
				discard(pending)
				pending = pending[:0]
			}
			if panicked != nil {
				panic(panicked)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	copy(st.x, bestX)
	st.recompute()
	res.x = bestX
	res.residual = make([]int64, len(kg.joins))
	for k := range kg.joins {
		res.residual[k] = st.deficit(k)
		if res.residual[k] == 0 && st.capDeficit(k) > 0 {
			res.residual[k] = st.capDeficit(k)
		}
	}
	return res, nil
}

// repairState carries the incremental bookkeeping of one repair attempt.
// All scratch is preallocated in newRepairState and reused across the
// attempts one solveX call runs on it, so the repair loop runs
// allocation-free at steady state (pinned by TestRepairSteadyStateAllocs).
// An attempt's result does not depend on which state it runs on: everything
// it reads is reset by initProportional or warmStart and the rng seeding.
type repairState struct {
	kg       *kgModel
	rng      *rand.Rand
	targets  []xTarget
	x        []int64
	cellMask []uint64 // joins where the cell is an in-cell
	cellCap  []int64  // key-supply cap per cell (|S_i|)
	inSum    []int64  // sum of x over in-cells per join
	capIn    []int64  // sum of min(x, cap) over in-cells per join
	jdc      []int64  // distinct requirement per join (unknownCard if none)
	jdcMask  uint64   // joins with a distinct requirement

	// Incremental error bookkeeping: errByJoin[k] = |deficit(k)| +
	// capDeficit(k), curErr their sum. Maintained by adjust so the repair
	// loop never needs a full recompute sweep.
	errByJoin []int64
	curErr    int64

	// Reused scratch buffers (see pickViolated / pickMove / repair).
	violatedBuf []int
	partsBuf    []int
	cellsBuf    []int
	bestXBuf    []int64
	plateau     [16]xMove
	plateauN    int

	// Sum-repair scoring of a unit without a distinct requirement
	// (sumMovesFrom): the joins' sign classes at the current sums, and the
	// per-join terms of near.
	signs    signs
	nearCost []int64
	fill     [maxCells]fillCell
	froms    [maxCells]int
	scan     moveScan

	// frozenExits counts the attempts repair ended because no move was
	// left (see frozen).
	frozenExits int
	// floor is a lower bound on the error: repair stops once it reaches it.
	floor int64
	// settle, when set, is called with the best assignment so far and its
	// error every settleStale iterations that have not improved on it, as
	// long as that error is below beat (see solveX). start holds the
	// assignment an attempt warm-starts from.
	settle func(x []int64, err int64)
	beat   int64
	start  []int64
}

// settleStale is how many non-improving iterations repair waits before it
// calls settle: an attempt's last improvement is usually followed by the
// whole stale limit, most of its run.
const settleStale = 64

// xMove is one candidate transfer between two cells of a T partition.
type xMove struct {
	from, to int
	amt      int64
}

func (kg *kgModel) newRepairState(targets []xTarget) *repairState {
	st := &repairState{
		kg: kg, targets: targets,
		x:         make([]int64, len(kg.cells)),
		cellMask:  make([]uint64, len(kg.cells)),
		cellCap:   make([]int64, len(kg.cells)),
		inSum:     make([]int64, len(kg.joins)),
		capIn:     make([]int64, len(kg.joins)),
		jdc:       append([]int64(nil), kg.njdc...),
		errByJoin: make([]int64, len(kg.joins)),
		bestXBuf:  make([]int64, len(kg.cells)),
		start:     make([]int64, len(kg.cells)),
		nearCost:  make([]int64, len(kg.joins)),
	}
	for ci, c := range kg.cells {
		st.cellMask[ci] = kg.sParts[c.si].mask & kg.tParts[c.tj].mask
		st.cellCap[ci] = int64(len(kg.sParts[c.si].rows))
	}
	for k, d := range st.jdc {
		if d != unknownCard {
			st.jdcMask |= 1 << uint(k)
		}
	}
	return st
}

// initProportional sets attempt 0's initial state: each T partition's rows
// spread across its cells proportionally to partition supply.
func (st *repairState) initProportional() {
	kg := st.kg
	for j, tp := range kg.tParts {
		capj := int64(len(tp.rows))
		var totalSupply int64
		for _, ci := range kg.byT[j] {
			totalSupply += int64(len(kg.sParts[kg.cells[ci].si].rows)) + 1
		}
		var assigned int64
		for idx, ci := range kg.byT[j] {
			var share int64
			if idx == len(kg.byT[j])-1 {
				share = capj - assigned
			} else if totalSupply > 0 {
				share = capj * (int64(len(kg.sParts[kg.cells[ci].si].rows)) + 1) / totalSupply
			}
			st.x[ci] = share
			assigned += share
		}
	}
	st.recompute()
}

// warmStart seeds the attempt from a previous best assignment, applying a
// coverage-preserving perturbation (mass shifts within single T partitions)
// so the new attempt's rng explores a different neighborhood instead of
// retracing the stuck one.
func (st *repairState) warmStart(x []int64) {
	copy(st.x, x)
	for j := range st.kg.tParts {
		cells := st.kg.byT[j]
		if len(cells) < 2 || st.rng.Intn(3) != 0 {
			continue
		}
		from := cells[st.rng.Intn(len(cells))]
		to := cells[st.rng.Intn(len(cells))]
		if from == to || st.x[from] == 0 {
			continue
		}
		amt := st.rng.Int63n(st.x[from] + 1)
		st.x[from] -= amt
		st.x[to] += amt
	}
	st.recompute()
}

// recompute rebuilds the per-join sums and the error bookkeeping from
// scratch. Needed only at attempt boundaries; the repair loop itself
// maintains everything incrementally through adjust.
func (st *repairState) recompute() {
	for k := range st.inSum {
		st.inSum[k], st.capIn[k] = 0, 0
	}
	for ci := range st.x {
		for m := st.cellMask[ci]; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			st.inSum[k] += st.x[ci]
			st.capIn[k] += minI64(st.x[ci], st.cellCap[ci])
		}
	}
	st.curErr = 0
	for k := range st.errByJoin {
		st.errByJoin[k] = st.errAt(k, st.inSum[k], st.capIn[k])
		st.curErr += st.errByJoin[k]
	}
}

// shuffle permutes s as r.Shuffle(len(s), swap) does, drawing the same
// numbers from r, without a call per swap.
func shuffle(r *rand.Rand, s []int) {
	for i := len(s) - 1; i > 0; i-- {
		// r.Shuffle's bounded draw of j in [0, i] (Lemire's method).
		n := uint32(i + 1)
		prod := uint64(r.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = uint64(r.Uint32()) * uint64(n)
			}
		}
		j := int(prod >> 32)
		s[i], s[j] = s[j], s[i]
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// deficit is the signed distance to an exact target (or the unmet part of a
// lower bound).
func (st *repairState) deficit(k int) int64 {
	d := st.targets[k].value - st.inSum[k]
	if !st.targets[k].exact && d < 0 {
		return 0
	}
	return d
}

// capDeficit is the unmet distinct-capacity requirement of a JDC join.
func (st *repairState) capDeficit(k int) int64 {
	if st.jdc[k] == unknownCard {
		return 0
	}
	if d := st.jdc[k] - st.capIn[k]; d > 0 {
		return d
	}
	return 0
}

// errAt evaluates one join's error contribution at hypothetical sums,
// without mutating state — the kernel both the incremental bookkeeping and
// the speculative move evaluation share.
func (st *repairState) errAt(k int, inSum, capIn int64) int64 {
	d := st.targets[k].value - inSum
	if !st.targets[k].exact && d < 0 {
		d = 0
	}
	if d < 0 {
		d = -d
	}
	if st.jdc[k] != unknownCard {
		if cd := st.jdc[k] - capIn; cd > 0 {
			d += cd
		}
	}
	return d
}

// apply moves amt rows of one T partition from one cell to another,
// updating the join sums incrementally.
func (st *repairState) apply(from, to int, amt int64) {
	st.adjust(from, -amt)
	st.adjust(to, amt)
}

// adjust shifts one cell by delta, updating the affected joins' sums and
// error contributions. Cost is O(popcount(cellMask)) — only the joins the
// cell participates in — not O(len(joins)).
func (st *repairState) adjust(ci int, delta int64) {
	oldCap := minI64(st.x[ci], st.cellCap[ci])
	st.x[ci] += delta
	newCap := minI64(st.x[ci], st.cellCap[ci])
	dCap := newCap - oldCap
	for m := st.cellMask[ci]; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		st.inSum[k] += delta
		st.capIn[k] += dCap
		e := st.errAt(k, st.inSum[k], st.capIn[k])
		st.curErr += e - st.errByJoin[k]
		st.errByJoin[k] = e
	}
}

// moveGain evaluates a candidate transfer without mutating state: the exact
// change in total error, computed over just the joins the move can change.
// A join only one of the two cells is in gains or loses amt; a join both
// are in keeps its sum, so its error can move only through a distinct
// capacity, and the cap deltas are computed only when such a join is
// touched. This replaces the old apply/revert/totalErr probe, which cost
// two full adjusts plus an O(joins) sweep per candidate.
func (st *repairState) moveGain(from, to int, amt int64) int64 {
	maskFrom, maskTo := st.cellMask[from], st.cellMask[to]
	var dCapFrom, dCapTo int64
	if (maskFrom|maskTo)&st.jdcMask != 0 {
		xf, xt := st.x[from], st.x[to]
		dCapFrom = minI64(xf-amt, st.cellCap[from]) - minI64(xf, st.cellCap[from])
		dCapTo = minI64(xt+amt, st.cellCap[to]) - minI64(xt, st.cellCap[to])
	}
	var gain int64
	for m := maskFrom &^ maskTo; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		gain += st.errByJoin[k] - st.errAt(k, st.inSum[k]-amt, st.capIn[k]+dCapFrom)
	}
	for m := maskTo &^ maskFrom; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		gain += st.errByJoin[k] - st.errAt(k, st.inSum[k]+amt, st.capIn[k]+dCapTo)
	}
	for m := maskFrom & maskTo & st.jdcMask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		gain += st.errByJoin[k] - st.errAt(k, st.inSum[k], st.capIn[k]+dCapFrom+dCapTo)
	}
	return gain
}

// frozenIdle is the run of consecutive no-move iterations after which repair
// asks frozen whether any move is left. Asking after every no-move iteration
// costs more than it saves on units that wander a plateau: there most idle
// runs are short coin flips against a zero-gain move, and each check scans
// the full neighbourhood of every violated join.
const frozenIdle = 32

// repair runs the min-conflicts loop and returns the final total error. It
// polls ctx every 64 iterations and stops early on interruption (the best
// assignment so far is kept; the caller re-checks ctx and propagates). It
// also stops once the state is frozen or its error reaches st.floor, which
// returns exactly what running on to the stale or iteration limit would: a
// frozen state never changes again, and no state's error falls below a lower
// bound, so in either case neither best nor bestX changes again.
func (st *repairState) repair(ctx context.Context) int64 {
	nCells := len(st.kg.cells)
	cur := st.curErr
	best := cur
	bestX := st.bestXBuf
	copy(bestX, st.x)
	stale, idle := 0, 0
	maxIters := 40*nCells + 40000
	if maxIters > 400_000 {
		maxIters = 400_000
	}
	for iter := 0; iter < maxIters && cur > st.floor && stale < 3000; iter++ {
		if iter%64 == 63 && ctx.Err() != nil {
			break
		}
		if st.settle != nil && stale > 0 && stale%settleStale == 0 && best < st.beat {
			st.settle(bestX, best)
		}
		k := st.pickViolated()
		if k == -1 {
			break
		}
		from, to, amt := st.pickMove(k)
		if from < 0 {
			stale++
			// The state is the same all through an idle run, so one
			// check per run answers for all of it.
			if idle++; idle == frozenIdle && st.frozen() {
				st.frozenExits++
				break
			}
			continue
		}
		idle = 0
		st.apply(from, to, amt)
		cur = st.curErr
		if cur < best {
			best, stale = cur, 0
			copy(bestX, st.x)
		} else {
			stale++
		}
	}
	copy(st.x, bestX)
	st.recompute()
	return best
}

// pickViolated selects the join to repair: usually the worst, occasionally a
// random violated one (plateau escape).
func (st *repairState) pickViolated() int {
	violated := st.violatedBuf[:0]
	worst, worstAbs := -1, int64(0)
	for k, d := range st.errByJoin {
		if d == 0 {
			continue
		}
		violated = append(violated, k)
		if d > worstAbs {
			worst, worstAbs = k, d
		}
	}
	st.violatedBuf = violated[:0]
	if worst == -1 {
		return -1
	}
	if len(violated) > 1 && st.rng.Intn(4) == 0 {
		return violated[st.rng.Intn(len(violated))]
	}
	return worst
}

// moveRule is what join k's move set depends on besides x: the join's bit,
// its signed deficit (need), that deficit's size (want) and its unmet
// distinct capacity (capNeed).
type moveRule struct {
	kb                  uint64
	need, want, capNeed int64
}

// ruleFor reads join k's moveRule off the current state.
func (st *repairState) ruleFor(k int) moveRule {
	r := moveRule{kb: uint64(1) << uint(k), need: st.deficit(k), capNeed: st.capDeficit(k)}
	r.want = r.need
	if r.want < 0 {
		r.want = -r.want
	}
	return r
}

// movesFrom calls try for every candidate transfer that repairs r's join from
// cell from to another of cells (one T partition's cells, or pickMove's
// sample of them): in/out pairs for sum repair and in-to-in pairs for
// capacity repair. It is the one definition of the move set; pickMove offers
// it a sample and frozen all of it.
//
// Sum-repair pairs are tried only in the repairing direction (a shortfall
// fills the in-side, an excess drains it — the reverse direction can only
// help through other joins and is plateau fuel at best), each with two
// amounts: the whole deficit (as far as the cell holds it) and one row.
func (st *repairState) movesFrom(r moveRule, from int, cells []int, try func(from, to int, amt int64)) {
	offer := func(to int, amt int64) {
		if amt > 0 && amt <= st.x[from] {
			try(from, to, amt)
		}
	}
	fromIn := st.cellMask[from]&r.kb != 0
	for _, to := range cells {
		if to == from {
			continue
		}
		toIn := st.cellMask[to]&r.kb != 0
		switch {
		case fromIn != toIn:
			if r.want == 0 {
				continue
			}
			// Direction pruning: only move toward the deficit.
			if (r.need > 0) == fromIn {
				continue
			}
			offer(to, minI64(r.want, st.x[from]))
			offer(to, 1)
		case fromIn && toIn && r.capNeed > 0:
			// Capacity repair: drain a supply-saturated cell into
			// one with spare supply.
			spare := st.cellCap[to] - st.x[to]
			if spare <= 0 || st.x[from] <= st.cellCap[from] {
				continue
			}
			amt := minI64(st.x[from]-st.cellCap[from], spare)
			offer(to, minI64(amt, r.capNeed))
		}
	}
}

// frozen reports whether no move is left: no candidate of movesFrom, over
// every T partition and every cell pair of every violated join, has gain
// ≥ 0. pickMove returns only a sampled candidate with gain > 0 or a
// zero-gain plateau move, so from a frozen state every later pickMove
// returns none, whatever it samples, and the state cannot change again. The
// rng draws the rest of the attempt would have made are skipped, which is
// harmless: solveX re-seeds st.rng for each attempt.
func (st *repairState) frozen() bool {
	open := false
	try := func(from, to int, amt int64) {
		if st.moveGain(from, to, amt) >= 0 {
			open = true
		}
	}
	for k, e := range st.errByJoin {
		if e == 0 {
			continue
		}
		r := st.ruleFor(k)
		for j, tp := range st.kg.tParts {
			if !bit(tp, k) {
				continue
			}
			cells := st.kg.byT[j]
			for _, from := range cells {
				if st.movesFrom(r, from, cells, try); open {
					return false
				}
			}
		}
	}
	return true
}

// maxParts and maxCells bound pickMove's sample: at most maxParts of the
// join's T partitions, and at most maxCells cells of each. evalBudget is the
// number of candidates after which it settles for a move it has.
const (
	maxParts, maxCells = 24, 16
	evalBudget         = 160
)

// moveScan is what pickMove has found so far: the best candidate with a
// positive gain (from < 0 while there is none) and the candidates scored.
type moveScan struct {
	from, to  int
	amt, gain int64
	evals     int
}

// consider scores one candidate of pickMove's scan. A zero-gain candidate
// joins the plateau list; one that beats the best gain replaces the best,
// and one that ties a positive best replaces it on a coin flip.
func (st *repairState) consider(from, to int, amt, gain int64) {
	sc := &st.scan
	sc.evals++
	if gain == 0 && st.plateauN < len(st.plateau) {
		st.plateau[st.plateauN] = xMove{from, to, amt}
		st.plateauN++
	}
	if gain > sc.gain || (gain == sc.gain && sc.from >= 0 && st.rng.Intn(4) == 0) {
		sc.from, sc.to, sc.amt, sc.gain = from, to, amt, gain
	}
}

// settled reports whether pickMove's scan may stop: the join's own error is
// fully repairable by the best move found, or the budget is spent and some
// move was found.
func (st *repairState) settled(r moveRule) bool {
	sc := &st.scan
	return (sc.gain >= r.want+r.capNeed && sc.gain > 0) ||
		(sc.evals >= evalBudget && (sc.gain > 0 || st.plateauN > 0))
}

// pickMove samples join k's move set (movesFrom) and scores each candidate
// with moveGain (no state mutation, no allocation).
//
// Sampling is aggressively pruned: the scan stops once the join's own error
// is fully repairable by the best move found, and a fixed gain-evaluation
// budget bounds each call — min-conflicts needs a good move, not the best
// one, and the full cross product made pickMove the dominant keygen cost.
//
// A unit without a distinct requirement scans through sumScan, which scores
// the same candidates in the same order with the same gains.
func (st *repairState) pickMove(k int) (int, int, int64) {
	r := st.ruleFor(k)
	st.scan = moveScan{from: -1, to: -1}
	st.plateauN = 0 // zero-gain moves: random-walk fuel
	tryMove := func(from, to int, amt int64) {
		st.consider(from, to, amt, st.moveGain(from, to, amt))
	}
	sums := st.jdcMask == 0
	if sums {
		st.signs.fill(st)
	}
	// Large units (hundreds of partitions) would make full enumeration
	// quadratic; sample partitions and cells instead — min-conflicts only
	// needs a good move, not the best one.
	parts := st.partsBuf[:0]
	for j := range st.kg.tParts {
		if bit(st.kg.tParts[j], k) {
			parts = append(parts, j)
		}
	}
	st.partsBuf = parts[:0]
	if len(parts) > maxParts {
		shuffle(st.rng, parts)
		parts = parts[:maxParts]
	}
scan:
	for _, j := range parts {
		cells := st.kg.byT[j]
		if len(cells) > maxCells {
			sample := append(st.cellsBuf[:0], cells...)
			st.cellsBuf = sample[:0]
			shuffle(st.rng, sample)
			cells = sample[:maxCells]
		}
		if sums {
			if !st.sumScan(r, cells) {
				break scan
			}
			continue
		}
		for _, from := range cells {
			if st.x[from] == 0 {
				continue
			}
			if st.settled(r) {
				break scan
			}
			st.movesFrom(r, from, cells, tryMove)
		}
	}
	if sc := &st.scan; sc.gain > 0 {
		return sc.from, sc.to, sc.amt
	}
	// Plateau escape: coordinated repairs (e.g. a capacity fix paid for by
	// a temporary sum violation) need zero-gain steps.
	if st.plateauN > 0 && st.rng.Intn(2) == 0 {
		m := st.plateau[st.rng.Intn(st.plateauN)]
		return m.from, m.to, m.amt
	}
	return -1, -1, 0
}

// signs classifies, for sumMovesFrom, the joins of a unit without a
// distinct requirement by the sign of their deficit d = target − sum. A
// move of a rows out of a cell changes the error of each of its joins by a
// multiple of a that the sign fixes (the join sheds a·so), and one into a
// cell likewise (a·si), except on the joins whose target lies strictly
// within a of their sum (near):
//
//	d > 0:         so = −1, si = +1
//	d = 0:         so = −1, si = −1 (exact) or 0 (lower bound)
//	d < 0 exact:   so = +1, si = −1
//	d < 0 bound:   so =  0, si =  0
type signs struct {
	outPlus, outMinus, inPlus, inMinus uint64
	// zeroEx and zeroLb are the joins with d = 0, exact and lower-bound:
	// a join both cells are in keeps its sum, where the move's two terms
	// would count it 2 and 1 worse per row.
	zeroEx, zeroLb uint64
	// closest is the least |d| over the joins with d ≠ 0: near(amt) is
	// empty for amt ≤ closest.
	closest int64
}

// fill classifies st's joins at their current sums.
func (c *signs) fill(st *repairState) {
	*c = signs{closest: math.MaxInt64}
	for k, t := range st.targets {
		b := uint64(1) << uint(k)
		d := t.value - st.inSum[k]
		if d != 0 {
			c.closest = min(c.closest, max(d, -d))
		}
		switch {
		case d > 0:
			c.outMinus |= b
			c.inPlus |= b
		case d == 0 && t.exact:
			c.outMinus |= b
			c.inMinus |= b
			c.zeroEx |= b
		case d == 0:
			c.outMinus |= b
			c.zeroLb |= b
		case t.exact:
			c.outPlus |= b
			c.inMinus |= b
		}
	}
}

// near returns the joins whose target lies strictly within amt of their
// sum, with d > 0 (short) and with d < 0 (over), and sets nearCost on them
// to c·(amt − |d|), c being 2 for an exact join and 1 for a lower bound.
// A move of amt rows that raises a short join's sum (into a cell in it,
// from one that is not) or lowers an over join's overshoots the target by
// amt − |d|: the join sheds that much less than a·si (a·so), twice for an
// exact join. Every other term of a move's gain is a·so or a·si exactly.
func (st *repairState) near(amt int64) (short, over uint64) {
	if amt <= st.signs.closest {
		return 0, 0
	}
	for k, t := range st.targets {
		d := t.value - st.inSum[k]
		if d == 0 || d >= amt || d <= -amt {
			continue
		}
		cost := amt - max(d, -d)
		if t.exact {
			cost *= 2
		}
		st.nearCost[k] = cost
		if d > 0 {
			short |= 1 << uint(k)
		} else {
			over |= 1 << uint(k)
		}
	}
	return short, over
}

// sumScan is pickMove's scan of one partition's cells (or its sample of
// them) in a unit without a distinct requirement, where every candidate is
// a sum-repair pair: from a cell on the side r drains to one on the side it
// fills. It offers consider the candidates movesFrom would, in the same
// order, each with the gain moveGain would give it (sumMovesFrom), and
// reports false where pickMove's scan stops. pickMove asks settled before
// every cell with rows; only a cell's candidates change the answer, so it is
// asked before the first such cell and after each cell with candidates that
// such a cell follows.
func (st *repairState) sumScan(r moveRule, cells []int) bool {
	if r.want == 0 {
		return true
	}
	drainIn := r.need < 0 // an excess drains the in-side, a shortfall fills it
	c := &st.signs
	fills, froms, last := 0, 0, -1
	for p, ci := range cells {
		m := st.cellMask[ci]
		switch {
		case (m&r.kb != 0) != drainIn:
			st.fill[fills] = fillCell{ci, m, int64(bits.OnesCount64(m&c.inPlus) - bits.OnesCount64(m&c.inMinus))}
			fills++
		case st.x[ci] > 0:
			st.froms[froms] = p
			froms++
		}
		if st.x[ci] > 0 {
			last = p
		}
	}
	if last < 0 {
		return true
	}
	if st.settled(r) {
		return false
	}
	for _, p := range st.froms[:froms] {
		st.sumMovesFrom(r, cells[p], st.fill[:fills])
		if p < last && st.settled(r) {
			return false
		}
	}
	return true
}

// fillCell is a cell a sum repair can move rows into, with the part of a
// one-row move's gain that is its own: Σ_{k∈T} si[k].
type fillCell struct {
	cell int
	mask uint64
	in   int64
}

// sumMovesFrom scores the candidates from cell from to each of fill, in
// order, with amt = min(want, x[from]) rows and with one. For a move of a
// rows from a cell of joins F to one of joins T, moveGain's
//
//	gain = Σ_{k∈F\T} out[k] + Σ_{k∈T\F} in[k]
//
// (out[k] and in[k] being what join k sheds when its sum falls and rises by
// a) is a·one, with one the gain of a one-row move, less nearCost over the
// short joins of T\F and the over joins of F\T (near). one is Σ so over
// F, Σ si over T and the correction for the joins with d = 0 in F∩T, all
// popcounts (signs). Since gain ≤ a·one, a pair with one < 0 has two
// candidates with a negative gain, which change nothing but the count.
func (st *repairState) sumMovesFrom(r moveRule, from int, fill []fillCell) {
	fromMask := st.cellMask[from]
	c := &st.signs
	amt := minI64(r.want, st.x[from])
	outF := int64(bits.OnesCount64(fromMask&c.outPlus) - bits.OnesCount64(fromMask&c.outMinus))
	zero := c.zeroEx | c.zeroLb
	nearDone := false
	var short, over uint64
	for i := range fill {
		f := &fill[i]
		one := outF + f.in
		if common := fromMask & f.mask; common&zero != 0 {
			one += int64(2*bits.OnesCount64(common&c.zeroEx) + bits.OnesCount64(common&c.zeroLb))
		}
		if one < 0 {
			st.scan.evals += 2
			continue
		}
		if !nearDone {
			short, over = st.near(amt)
			nearDone = true
		}
		gain := amt * one
		for m := f.mask &^ fromMask & short; m != 0; m &= m - 1 {
			gain -= st.nearCost[bits.TrailingZeros64(m)]
		}
		for m := fromMask &^ f.mask & over; m != 0; m &= m - 1 {
			gain -= st.nearCost[bits.TrailingZeros64(m)]
		}
		if gain < 0 {
			st.scan.evals++
		} else {
			st.consider(from, f.cell, amt, gain)
		}
		st.consider(from, f.cell, 1, one)
	}
}
