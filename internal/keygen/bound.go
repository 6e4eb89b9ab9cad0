package keygen

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// lowerBound returns a lower bound on the error repair minimises over every
// assignment of the x-system: Σ_k |n_jcc − Σ x| over the exact joins plus
// the shortfall of every lower-bound join. solveX stops its restarts once an
// attempt meets it: no assignment can do better.
//
// The bound is the LP relaxation's. Without a distinct requirement a cell's
// error depends only on its mask sParts[i].mask & tParts[j].mask, so each T
// partition's rows split over its cell-mask classes (boundLP). The LP's
// only job is to propose join duals v; certify evaluates them exactly by
// weak duality, so the bound holds whatever the simplex did. A unit with a
// distinct requirement gets 0: its capacity term is not modelled.
func (kg *kgModel) lowerBound() int64 {
	if slices.ContainsFunc(kg.njdc, func(d int64) bool { return d != unknownCard }) {
		return 0
	}
	lp := kg.newBoundLP()
	return lp.certify(lp.solve())
}

// boundLP is the LP relaxation of one unit's x-system with no distinct
// requirement:
//
//	minimise   Σ_k e⁺_k + c⁻_k e⁻_k
//	subject to Σ_{(g,o): k ∈ o} y_go + e⁺_k − e⁻_k = t_k   for every join k
//	           Σ_o y_go = n_g                                for every set g
//	           y, e⁺, e⁻ ≥ 0
//
// with c⁻_k = 1 for an exact join and 0 for a lower-bound one. A set g is a
// group of T partitions with the same classes o (masks over the joins),
// merged because the LP cannot tell them apart; n_g is their rows. The
// coverage rows stay implicit (generalized upper bounding), so solve works
// on a K×K basis for K joins and the LP's working set is O(K × columns).
type boundLP struct {
	t     []int64  // join targets
	exact []bool   // exact join: the excess costs 1 as well
	n     []int64  // rows per set
	start []int    // set g's columns are cols[start[g]:start[g+1]]
	cols  []int32  // column → class, an index into masks
	set   []int32  // column → its set
	masks []uint64 // distinct class masks
}

// newBoundLP lays out kg's LP: one set per distinct class list, in order of
// first appearance over the T partitions.
func (kg *kgModel) newBoundLP() *boundLP {
	K := len(kg.joins)
	lp := &boundLP{t: make([]int64, K), exact: make([]bool, K)}
	for k := range kg.joins {
		if kg.njcc[k] != unknownCard {
			lp.t[k], lp.exact[k] = kg.njcc[k], true
		}
	}
	classOf := make(map[uint64]int32)
	setOf := make(map[string]int)
	var cls []uint64
	var key []byte
	for _, tp := range kg.tParts {
		cls = cls[:0]
		for _, sp := range kg.sParts {
			cls = append(cls, sp.mask&tp.mask)
		}
		slices.Sort(cls)
		cls = slices.Compact(cls)
		key = key[:0]
		for _, m := range cls {
			key = binary.LittleEndian.AppendUint64(key, m)
		}
		if g, ok := setOf[string(key)]; ok {
			lp.n[g] += int64(len(tp.rows))
			continue
		}
		g := len(lp.n)
		setOf[string(key)] = g
		lp.n = append(lp.n, int64(len(tp.rows)))
		lp.start = append(lp.start, len(lp.cols))
		for _, m := range cls {
			c, ok := classOf[m]
			if !ok {
				c = int32(len(lp.masks))
				classOf[m] = c
				lp.masks = append(lp.masks, m)
			}
			lp.cols = append(lp.cols, c)
			lp.set = append(lp.set, int32(g))
		}
	}
	lp.start = append(lp.start, len(lp.cols))
	return lp
}

// LP tolerances: a reduced cost or a pivot element below lpTol counts as
// zero, and a step below it as degenerate.
const lpTol = 1e-9

// solve runs the primal simplex on lp with Dantzig–Van Slyke generalized
// upper bounding and returns the join duals π of its last basis. Each set
// keeps one basic column, its key, implicit; the K other basic columns form
// the working basis W, whose column for a y column is its mask minus its
// key's and for e±_k is ±e_k. W is rebuilt and factorised at every pivot
// (K ≤ 64), so no rounding carries from one pivot to the next.
//
// The start basis is feasible: every set's key is its first class and each
// join's e⁺ or e⁻ takes up the difference, so there is no phase 1. Dantzig's
// rule picks the entering column until a run of degenerate pivots, then
// Bland's rule until a pivot makes progress, so the method cannot cycle.
// It stops at an optimal basis, after a pivot cap that depends only on the
// LP's size, or when W turns out singular; certify accepts whatever π is
// then.
func (lp *boundLP) solve() []float64 {
	K, Y := len(lp.t), len(lp.cols)
	key := make([]int, len(lp.n)) // key column of each set
	for g := range key {
		key[g] = lp.start[g]
	}
	// Working columns: y columns are < Y, e⁺_k is Y+k and e⁻_k is Y+K+k.
	wb := make([]int, K)
	inW := make([]bool, Y+2*K)
	s := make([]int64, K)
	for g, n := range lp.n {
		for m := lp.masks[lp.cols[key[g]]]; m != 0; m &= m - 1 {
			s[bits.TrailingZeros64(m)] += n
		}
	}
	for k := range wb {
		wb[k] = Y + K + k
		if lp.t[k] >= s[k] {
			wb[k] = Y + k
		}
		inW[wb[k]] = true
	}
	var (
		W        = make([]float64, K*K)
		piv      = make([]int, K)
		xw       = make([]float64, K) // working basic values
		ykey     = make([]float64, len(lp.n))
		pi       = make([]float64, K)
		last     = make([]float64, K) // π of the last factorised basis
		d        = make([]float64, K)
		w        = make([]float64, len(lp.masks)) // per class: π · mask
		r        = make([]float64, len(lp.n))
		degen    int
		bland    bool
		maxPivot = 20*(K+len(lp.n)) + 200
	)
	// column writes working column c (relative to its set's key) into dst.
	column := func(c int, dst []float64) {
		clear(dst)
		switch {
		case c >= Y+K:
			dst[c-Y-K] = -1
		case c >= Y:
			dst[c-Y] = 1
		default:
			m, mk := lp.masks[lp.cols[c]], lp.masks[lp.cols[key[lp.set[c]]]]
			for k := range dst {
				dst[k] = float64(int(m>>uint(k)&1) - int(mk>>uint(k)&1))
			}
		}
	}
	for pivot := 0; pivot < maxPivot; pivot++ {
		for i, c := range wb {
			column(c, d)
			for k := range K {
				W[k*K+i] = d[k]
			}
		}
		if !luFactor(W, piv, K) {
			break
		}
		// Values: W xw = t − Σ_g n_g a_key(g); each key takes the rest of
		// its set's rows.
		for k := range K {
			xw[k] = float64(lp.t[k])
		}
		for g, n := range lp.n {
			ykey[g] = float64(n)
			for m := lp.masks[lp.cols[key[g]]]; m != 0; m &= m - 1 {
				xw[bits.TrailingZeros64(m)] -= float64(n)
			}
		}
		luSolve(W, piv, K, xw)
		for i, c := range wb {
			if c < Y {
				ykey[lp.set[c]] -= xw[i]
			}
		}
		// Duals: Wᵀπ = the working columns' costs net of their keys'.
		for i, c := range wb {
			pi[i] = 0
			if c >= Y && (c < Y+K || lp.exact[c-Y-K]) {
				pi[i] = 1
			}
		}
		luSolveT(W, piv, K, pi)
		copy(last, pi)
		// Pricing. A y column's reduced cost is π·a_key − π·a, e⁺_k's is
		// 1 − π_k and e⁻_k's c⁻_k + π_k.
		for c, m := range lp.masks {
			var v float64
			for ; m != 0; m &= m - 1 {
				v += pi[bits.TrailingZeros64(m)]
			}
			w[c] = v
		}
		// Columns come in index order, so Bland's rule takes the first
		// eligible one and Dantzig's the first of the most negative.
		enter, best := -1, 0.0
		consider := func(c int, rc float64) {
			if rc >= -lpTol || inW[c] || (bland && enter >= 0) {
				return
			}
			if enter < 0 || rc < best {
				enter, best = c, rc
			}
		}
		for c := range Y {
			if c != key[lp.set[c]] {
				consider(c, w[lp.cols[key[lp.set[c]]]]-w[lp.cols[c]])
			}
		}
		for k := range K {
			consider(Y+k, 1-pi[k])
		}
		for k := range K {
			cm := 0.0
			if lp.exact[k] {
				cm = 1
			}
			consider(Y+K+k, cm+pi[k])
		}
		if enter < 0 {
			break // optimal
		}
		// Ratio test along the entering column: working basic i falls at
		// rate d_i, the key of set g at rate r_g.
		column(enter, d)
		luSolve(W, piv, K, d)
		clear(r)
		if enter < Y {
			r[lp.set[enter]] = 1
		}
		for i, c := range wb {
			if c < Y {
				r[lp.set[c]] -= d[i]
			}
		}
		leaveW, leaveKey, theta, leaveCol := -1, -1, 0.0, -1
		better := func(ratio float64, col int) bool {
			if leaveCol < 0 {
				return true
			}
			tie := math.Abs(ratio-theta) <= lpTol*(1+theta)
			return (tie && col < leaveCol) || (!tie && ratio < theta)
		}
		for i, c := range wb {
			if d[i] > lpTol {
				if ratio := max(xw[i], 0) / d[i]; better(ratio, c) {
					leaveW, leaveKey, theta, leaveCol = i, -1, ratio, c
				}
			}
		}
		for g, rg := range r {
			if rg > lpTol {
				if ratio := max(ykey[g], 0) / rg; better(ratio, key[g]) {
					leaveW, leaveKey, theta, leaveCol = -1, g, ratio, key[g]
				}
			}
		}
		if leaveCol < 0 {
			break // unbounded: impossible for an error ≥ 0, so numerical trouble
		}
		if theta <= lpTol {
			degen++
			bland = bland || degen >= 2*K+16
		} else {
			degen, bland = 0, false
		}
		inW[enter] = true
		switch {
		case leaveW >= 0:
			inW[wb[leaveW]] = false
			wb[leaveW] = enter
		case enter < Y && int(lp.set[enter]) == leaveKey:
			key[leaveKey] = enter
			inW[enter] = false
		default:
			// Another basic column of the set becomes its key, and the
			// entering column takes that column's place in W.
			for i, c := range wb {
				if c < Y && int(lp.set[c]) == leaveKey {
					key[leaveKey] = c
					inW[c] = false
					wb[i] = enter
					break
				}
			}
		}
	}
	return last
}

// certify evaluates join duals v by weak duality, exactly. For v in the dual
// box (v_k ∈ [−1, 1] for an exact join, [0, 1] for a lower-bound one) and
// any assignment with join sums s_k, each join's error is at least
// v_k(t_k − s_k), and Σ_k v_k s_k ≤ Σ_g n_g max_o Σ_{k∈o} v_k. So
//
//	error ≥ Σ_k v_k t_k − Σ_g n_g max_o Σ_{k∈o} v_k.
//
// v is clamped into the box and rounded to multiples of 2^-p, with p as
// large as keeps every term of the sum inside int64, and the sum is taken
// in integers. An error is an integer, so its ceiling is a bound too. The
// result holds for any v, NaN included.
func (lp *boundLP) certify(v []float64) int64 {
	span := uint64(0) // Σ|t_k| + K·Σ n_g bounds the sum at unit duals
	for _, t := range lp.t {
		span += uint64(max(t, -t))
	}
	for _, n := range lp.n {
		span += uint64(len(lp.t)) * uint64(n)
	}
	p := min(40, max(0, 61-bits.Len64(span)))
	one := float64(int64(1) << p)
	vq := make([]int64, len(lp.t))
	for k, x := range v {
		lo := 0.0
		if lp.exact[k] {
			lo = -1
		}
		switch {
		case math.IsNaN(x):
			x = 0
		case x < lo:
			x = lo
		case x > 1:
			x = 1
		}
		vq[k] = int64(math.Round(x * one))
	}
	var sum int64
	for k, t := range lp.t {
		sum += vq[k] * t
	}
	for g, n := range lp.n {
		most := int64(math.MinInt64)
		for _, c := range lp.cols[lp.start[g]:lp.start[g+1]] {
			var s int64
			for m := lp.masks[c]; m != 0; m &= m - 1 {
				s += vq[bits.TrailingZeros64(m)]
			}
			most = max(most, s)
		}
		sum -= n * most
	}
	return max(0, -(-sum >> uint(p))) // ⌈sum / 2^p⌉
}

// luFactor factorises the n×n row-major matrix a in place as PA = LU with
// partial pivoting, row j swapped with row piv[j] at step j. It reports
// false when a pivot is below lpTol.
func luFactor(a []float64, piv []int, n int) bool {
	for j := range n {
		p := j
		for i := j + 1; i < n; i++ {
			if math.Abs(a[i*n+j]) > math.Abs(a[p*n+j]) {
				p = i
			}
		}
		if math.Abs(a[p*n+j]) < lpTol {
			return false
		}
		piv[j] = p
		if p != j {
			for c := range n {
				a[j*n+c], a[p*n+c] = a[p*n+c], a[j*n+c]
			}
		}
		for i := j + 1; i < n; i++ {
			f := a[i*n+j] / a[j*n+j]
			a[i*n+j] = f
			for c := j + 1; c < n; c++ {
				a[i*n+c] -= f * a[j*n+c]
			}
		}
	}
	return true
}

// luSolve overwrites b with the solution x of Ax = b, a as luFactor left it.
func luSolve(a []float64, piv []int, n int, b []float64) {
	for j := range n {
		b[j], b[piv[j]] = b[piv[j]], b[j]
	}
	for i := range n {
		for j := range i {
			b[i] -= a[i*n+j] * b[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			b[i] -= a[i*n+j] * b[j]
		}
		b[i] /= a[i*n+i]
	}
}

// luSolveT overwrites c with the solution y of Aᵀy = c, a as luFactor left
// it: Aᵀ = UᵀLᵀP, so it solves Uᵀ, then Lᵀ, then undoes the row swaps.
func luSolveT(a []float64, piv []int, n int, c []float64) {
	for i := range n {
		for j := range i {
			c[i] -= a[j*n+i] * c[j]
		}
		c[i] /= a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			c[i] -= a[j*n+i] * c[j]
		}
	}
	for j := n - 1; j >= 0; j-- {
		c[j], c[piv[j]] = c[piv[j]], c[j]
	}
}
