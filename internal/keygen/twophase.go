package keygen

import "context"

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
// Besides the solution it reports the restarts taken (local-search attempts
// beyond the first) and the constraints resized, for the degradation
// ledger. The only error it returns is a context interruption.
func (kg *kgModel) solveTwoPhase(ctx context.Context, cfg Config) (*solution, int, int, error) {
	resized := 0
	x, residual, attempts, err := kg.solveXLocal(ctx, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	restarts := attempts - 1
	for k, r := range residual {
		if r != 0 {
			resized++
			if kg.njcc[k] != unknownCard {
				kg.njcc[k] -= r
			}
		}
	}
	sol, dfResid := kg.solveDFLocal(x)
	resized += dfResid
	return sol, restarts, resized, nil
}
