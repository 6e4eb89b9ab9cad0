package keygen

import "math/bits"

// solveDFLocal assigns the distinct/fresh key counts for a fixed x by
// min-conflicts repair, replacing a systematic search that struggles on the
// coupled sum equalities.
//
// Structure: only cells participating in a JDC-constrained join with
// positive mass carry fresh-key variables. Every used (S-partition,
// reuse-class) pair needs at least one fresh key — its class block must be
// non-empty for reuse to have a source — so those anchors start at one; the
// repair then walks single-cell ±1 moves toward the exact per-join fresh
// sums. Residual deficits (genuine infeasibility under the chosen x, e.g. a
// JDC below the number of partition classes that must participate) are
// returned for constraint accounting.
func (kg *kgModel) solveDFLocal(x []int64) (*solution, int) {
	sol := &solution{x: x, d: make([]int64, len(kg.cells)), f: make([]int64, len(kg.cells))}
	for ci, c := range kg.cells {
		if x[ci] == 0 {
			continue
		}
		if c.jdcMask == 0 {
			// No JDC join observes this cell: use the full key diversity so
			// PK-side join outputs (inputs of later units) stay rich.
			sol.d[ci] = minI64(x[ci], int64(len(kg.sParts[c.si].rows)))
		} else {
			sol.d[ci] = 1
		}
	}
	// Active cells and class anchors.
	var active []int
	classMasks := make(map[int]map[uint64]bool) // si -> active class masks
	for ci, c := range kg.cells {
		if c.jdcMask == 0 || x[ci] == 0 {
			continue
		}
		active = append(active, ci)
		if classMasks[c.si] == nil {
			classMasks[c.si] = make(map[uint64]bool)
		}
		classMasks[c.si][c.jdcMask] = true
	}
	// Anchor only maximal classes: a class with an active strict-superset
	// class can reuse that class's fresh keys, so it needs none of its own.
	fmin := make(map[int]int64)
	anchored := make(map[int]map[uint64]bool)
	for _, ci := range active {
		c := kg.cells[ci]
		maximal := true
		for m := range classMasks[c.si] {
			if m != c.jdcMask && m&c.jdcMask == c.jdcMask {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		if anchored[c.si] == nil {
			anchored[c.si] = make(map[uint64]bool)
		}
		if !anchored[c.si][c.jdcMask] {
			anchored[c.si][c.jdcMask] = true
			fmin[ci] = 1
		}
	}
	if len(active) == 0 {
		return sol, 0
	}
	fmax := make(map[int]int64)
	// Fresh-key budgets are scoped per (S partition, connected component of
	// mask-overlapping classes): joins that share no cells in a partition
	// can reuse the same physical keys freely, so their budgets are
	// independent (each bounded by |S_i| on its own). allocateKeys carves
	// its key blocks over the same components.
	comp := make(map[int]map[uint64]int, len(classMasks))
	for si, masks := range classMasks {
		list := make([]uint64, 0, len(masks))
		for m := range masks {
			list = append(list, m)
		}
		comp[si] = componentsOf(list)
	}
	budget := make(map[[2]int64]int64)
	compOf := func(ci int) [2]int64 {
		c := kg.cells[ci]
		return [2]int64{int64(c.si), int64(comp[c.si][c.jdcMask])}
	}
	for _, ci := range active {
		key := compOf(ci)
		if _, ok := budget[key]; !ok {
			budget[key] = int64(len(kg.sParts[kg.cells[ci].si].rows))
		}
	}
	f := make(map[int]int64)
	for _, ci := range active {
		c := kg.cells[ci]
		cap := x[ci]
		if s := int64(len(kg.sParts[c.si].rows)); s < cap {
			cap = s
		}
		fmax[ci] = cap
		f[ci] = fmin[ci]
		budget[compOf(ci)] -= f[ci]
	}
	// Per-join in-sums over fresh keys.
	inSum := make([]int64, len(kg.joins))
	for _, ci := range active {
		for k := range kg.joins {
			if kg.cells[ci].jdcMask&(1<<uint(k)) != 0 {
				inSum[k] += f[ci]
			}
		}
	}
	jdcJoins := make([]int, 0, len(kg.joins))
	for k := range kg.joins {
		if kg.njdc[k] != unknownCard {
			jdcJoins = append(jdcJoins, k)
		}
	}
	deficit := func(k int) int64 { return kg.njdc[k] - inSum[k] }

	for iter := 0; iter < 64*len(active)+4096; iter++ {
		worst, worstAbs := -1, int64(0)
		for _, k := range jdcJoins {
			d := deficit(k)
			if d < 0 {
				d = -d
			}
			if d > worstAbs {
				worst, worstAbs = k, d
			}
		}
		if worst == -1 {
			break
		}
		need := deficit(worst)
		// Choose the cell whose adjustment perturbs other joins least.
		best, bestScore := -1, int64(1)<<60
		for _, ci := range active {
			c := kg.cells[ci]
			if c.jdcMask&(1<<uint(worst)) == 0 {
				continue
			}
			if need > 0 {
				if f[ci] >= fmax[ci] || budget[compOf(ci)] <= 0 {
					continue
				}
			} else {
				if f[ci] <= fmin[ci] {
					continue
				}
			}
			// Score: collateral change on other joins' |deficit|.
			var score int64
			for _, k := range jdcJoins {
				if k == worst || c.jdcMask&(1<<uint(k)) == 0 {
					continue
				}
				d := deficit(k)
				if (need > 0) == (d > 0) {
					score-- // moving both toward target
				} else {
					score++
				}
			}
			score = score*64 + int64(bits.OnesCount64(c.jdcMask))
			if score < bestScore {
				best, bestScore = ci, score
			}
		}
		if best == -1 {
			break // stuck: residual recorded below
		}
		delta := int64(1)
		if need < 0 {
			delta = -1
		}
		// Take as many unit steps as both the need and the caps allow.
		steps := need
		if steps < 0 {
			steps = -steps
		}
		c := kg.cells[best]
		_ = c
		if delta > 0 {
			if room := fmax[best] - f[best]; room < steps {
				steps = room
			}
			if b := budget[compOf(best)]; b < steps {
				steps = b
			}
		} else {
			if room := f[best] - fmin[best]; room < steps {
				steps = room
			}
		}
		if steps == 0 {
			break
		}
		f[best] += delta * steps
		budget[compOf(best)] -= delta * steps
		for k := range kg.joins {
			if c.jdcMask&(1<<uint(k)) != 0 {
				inSum[k] += delta * steps
			}
		}
	}
	residuals := 0
	for _, k := range jdcJoins {
		if deficit(k) != 0 {
			residuals++
		}
	}
	for _, ci := range active {
		sol.f[ci] = f[ci]
		if sol.f[ci] > sol.d[ci] {
			sol.d[ci] = sol.f[ci]
		}
	}
	return sol, residuals
}
