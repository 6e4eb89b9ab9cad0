package keygen

import (
	"context"
	"slices"
)

// solveTwoPhase decomposes the unit's system into the x-system and a
// cell-level d/f-system.
//
// The joint model of Section 5.2 treats every (S-partition, T-partition)
// pair as a variable, but within one T partition all S partitions whose
// status masks agree on the T partition's joins are interchangeable — a
// symmetry that poisons backtracking search. Phase 1 therefore solves the
// x-system by min-conflicts local search (solveXLocal). Phase 2 assigns the
// distinct/fresh counts at cell level with x fixed (solveDFLocal) — tiny,
// because fresh values exist only where JDC-constrained joins see the cell.
// What either phase cannot meet is clamped by Section 6's resize rule.
//
// It adds to st the restarts taken (local-search attempts beyond the first),
// the constraints resized, the x-system's least error and lower bound (both 0
// when attempt 0 met every join), and the run time of the attempts spare workers of pool
// ran, for the degradation ledger and the CP time. The only error it returns
// is a context interruption.
func (kg *kgModel) solveTwoPhase(ctx context.Context, cfg Config, pool *spares, st *Stats) (*solution, error) {
	xs, err := kg.solveXLocal(ctx, cfg, pool)
	if err != nil {
		return nil, err
	}
	st.Restarts += len(xs.errs) - 1
	st.CPTime += xs.helperTime
	st.xResidual, st.xBound = slices.Min(xs.errs), xs.bound
	for k, r := range xs.residual {
		if r != 0 {
			st.Resized++
			if kg.njcc[k] != unknownCard {
				kg.njcc[k] -= r
			}
		}
	}
	sol, dfResid := kg.solveDFLocal(xs.x)
	st.Resized += dfResid
	return sol, nil
}
