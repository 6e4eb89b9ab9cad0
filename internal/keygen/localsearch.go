package keygen

import (
	"context"
	"math/bits"
	"math/rand"
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
// consumed (≥ 1) for the degradation ledger. The repair loop polls ctx, so a
// deadline or cancellation lands between (or inside) attempts; only context
// interruption yields a non-nil error.
func (kg *kgModel) solveXLocal(ctx context.Context, cfg Config, pool *spares) (*xSolve, error) {
	return kg.solveX(ctx, cfg, pool, (*repairState).repair)
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
	// helperTime sums the run time of every attempt a spare worker ran,
	// committed or discarded.
	helperTime time.Duration
	// ahead counts the committed attempts that started before an earlier
	// attempt was committed; discarded counts the attempts thrown away.
	ahead, discarded int
}

// attemptRun is one repair attempt in flight or finished.
type attemptRun struct {
	a      int
	st     *repairState
	ahead  bool  // started while an earlier attempt was uncommitted
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

// solveX is solveXLocal with the repair loop as a parameter, so a test can
// run the same attempts, restarts and warm starts around another loop.
//
// An attempt depends only on the best assignment at its start (bestX) and
// its index: the rng is re-seeded from the index and warmStart copies bestX.
// So while attempt a runs, attempts a+1, a+2, … can already run from the
// same bestX, on the calling goroutine and on workers taken from pool, each
// with its own repairState. Attempts are committed in index order exactly as
// the sequential loop would: one that started from the current bestX is
// valid as long as no earlier attempt strictly improves the best error. When
// one does (or reaches 0), every attempt still uncommitted is cancelled,
// joined and thrown away, and the loop goes on from the new bestX. x, the
// residuals and the attempt count are therefore the sequential loop's at any
// number of spare workers; with none it is the sequential loop.
func (kg *kgModel) solveX(ctx context.Context, cfg Config, pool *spares, repair func(*repairState, context.Context) int64) (*xSolve, error) {
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
	state := func() *repairState {
		if n := len(free); n > 0 {
			s := free[n-1]
			free = free[:n-1]
			return s
		}
		return kg.newRepairState(targets)
	}
	bestX := make([]int64, len(kg.cells))
	bestErr := int64(1) << 60
	run := func(ctx context.Context, r *attemptRun) {
		r.st.rng = rand.New(rand.NewSource(cfg.Seed ^ (0x51ca1 + int64(r.a)*7919)))
		if r.a == 0 {
			r.st.initProportional()
		} else {
			r.st.warmStart(bestX)
		}
		exits := r.st.frozenExits
		r.err = repair(r.st, ctx)
		r.frozen = r.st.frozenExits - exits
	}
	// goRun starts attempt a on a worker taken from pool, which gets it back
	// when the attempt ends.
	goRun := func(a int) *attemptRun {
		actx, cancel := context.WithCancel(ctx)
		r := &attemptRun{a: a, st: state(), ahead: true, done: make(chan struct{}), cancel: cancel}
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
	// order; every one of them started from the current bestX.
	var pending []*attemptRun
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
	// drop cancels, joins and throws away every pending attempt.
	drop := func() {
		for _, r := range pending {
			if r.cancel != nil {
				r.cancel()
			}
			collect(r)
		}
		res.discarded += len(pending)
		pending = pending[:0]
	}
	defer drop() // pending is empty unless ctx or a panic ends the loop
	next := 0    // the next attempt to commit
	for next < maxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The calling goroutine runs the lowest attempt not yet started,
		// spare workers the ones after it. Attempt 0 always improves on
		// the initial bestErr, so nothing runs ahead of it.
		var own *attemptRun
		launched := next + len(pending)
		if launched < maxAttempts {
			own = &attemptRun{a: launched, st: state(), ahead: launched > next}
			pending = append(pending, own)
			launched++
		}
		for next > 0 && launched < maxAttempts && pool.take() {
			pending = append(pending, goRun(launched))
			launched++
		}
		if own != nil {
			run(ctx, own)
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
				drop()
				bestErr = r.err
				copy(bestX, r.st.x)
				if bestErr == 0 {
					next = maxAttempts
				}
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

	// frozenExits counts the attempts repair ended because no move was
	// left (see frozen).
	frozenExits int
}

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
// polls ctx every 1024 iterations and stops early on interruption (the best
// assignment so far is kept; the caller re-checks ctx and propagates). It
// also stops once the state is frozen, which returns exactly what running
// on to the stale or iteration limit would: a frozen state never changes
// again, so neither do best and bestX.
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
	for iter := 0; iter < maxIters && cur > 0 && stale < 3000; iter++ {
		if iter%1024 == 1023 && ctx.Err() != nil {
			break
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

// pickMove samples join k's move set (movesFrom) and scores each candidate
// with moveGain (no state mutation, no allocation).
//
// Sampling is aggressively pruned: the scan stops once the join's own error
// is fully repairable by the best move found, and a fixed gain-evaluation
// budget bounds each call — min-conflicts needs a good move, not the best
// one, and the full cross product made pickMove the dominant keygen cost.
func (st *repairState) pickMove(k int) (int, int, int64) {
	r := st.ruleFor(k)
	bestFrom, bestTo, bestAmt := -1, -1, int64(0)
	bestGain := int64(0)
	evals := 0
	st.plateauN = 0 // zero-gain moves: random-walk fuel
	tryMove := func(from, to int, amt int64) {
		evals++
		gain := st.moveGain(from, to, amt)
		if gain == 0 && st.plateauN < len(st.plateau) {
			st.plateau[st.plateauN] = xMove{from, to, amt}
			st.plateauN++
		}
		if gain > bestGain || (gain == bestGain && bestFrom >= 0 && st.rng.Intn(4) == 0) {
			bestFrom, bestTo, bestAmt, bestGain = from, to, amt, gain
		}
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
	const maxParts, maxCells = 24, 16
	const evalBudget = 160
	if len(parts) > maxParts {
		st.rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		parts = parts[:maxParts]
	}
scan:
	for _, j := range parts {
		cells := st.kg.byT[j]
		if len(cells) > maxCells {
			sample := append(st.cellsBuf[:0], cells...)
			st.cellsBuf = sample[:0]
			st.rng.Shuffle(len(sample), func(a, b int) { sample[a], sample[b] = sample[b], sample[a] })
			cells = sample[:maxCells]
		}
		for _, from := range cells {
			if st.x[from] == 0 {
				continue
			}
			if bestGain >= r.want+r.capNeed && bestGain > 0 {
				break scan // the join's own error is fully repairable
			}
			if evals >= evalBudget && (bestGain > 0 || st.plateauN > 0) {
				break scan
			}
			st.movesFrom(r, from, cells, tryMove)
		}
	}
	if bestGain <= 0 {
		// Plateau escape: coordinated repairs (e.g. a capacity fix paid
		// for by a temporary sum violation) need zero-gain steps.
		if st.plateauN > 0 && st.rng.Intn(2) == 0 {
			m := st.plateau[st.rng.Intn(st.plateauN)]
			return m.from, m.to, m.amt
		}
		return -1, -1, 0
	}
	return bestFrom, bestTo, bestAmt
}
