package keygen

import (
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
)

// cellVar is one (S-partition, T-partition) pair. The solution carries three
// values per cell:
//
//	x — foreign keys in T_j populated from S_i (PF of Section 5.2);
//	d — distinct primary keys of S_i used for them (PF^d);
//	f — "fresh" keys among those d: keys of S_i that no previously
//	    processed cell has used under any JDC-constrained join the cell
//	    participates in.
//
// The paper's formulation sums d directly into each JDC and therefore
// assumes the distinct-key sets of a join's cells are pairwise disjoint.
// That is sufficient but not necessary — instances exist (including the
// paper's own running example re-laid-out) whose only witnesses share keys
// across cells of one join. The fresh/reuse split generalizes the model
// exactly: a join's distinct count is the number of fresh keys introduced
// across its cells (Σ f = n_jdc), and a cell may fill its remaining d − f
// distinct keys by reusing keys introduced by cells whose JDC-join set is a
// superset of its own (so the reuse is invisible to every join the cell
// touches). Setting f = d recovers the paper's disjoint model.
type cellVar struct {
	si, tj int
	// jdcMask is the set of JDC-constrained joins the cell participates in.
	jdcMask uint64
}

// kgModel is one unit's join-constraint system (Equations 3–5 plus the
// validity constraints of Section 5.2, in the generalized fresh/reuse form):
// the partition cells and their indexes. solveTwoPhase solves it.
type kgModel struct {
	joins          []*genplan.JoinCons
	njcc, njdc     []int64 // effective (possibly resized) constraints
	sParts, tParts []*part
	cells          []cellVar
	byT            [][]int // tj -> cell indices (ordered by si)
	byS            [][]int // si -> cell indices (ordered by tj)
}

// bit reports whether partition p participates in join k.
func bit(p *part, k int) bool { return p.mask&(1<<uint(k)) != 0 }

// buildModel lays out one cell per (S partition, T partition) pair.
func buildModel(joins []*genplan.JoinCons, sParts, tParts []*part, njcc, njdc []int64) *kgModel {
	kg := &kgModel{joins: joins, njcc: njcc, njdc: njdc, sParts: sParts, tParts: tParts}
	kg.byT = make([][]int, len(tParts))
	kg.byS = make([][]int, len(sParts))

	var jdcMaskAll uint64
	for k := range joins {
		if njdc[k] != relalg.CardUnknown {
			jdcMaskAll |= 1 << uint(k)
		}
	}

	for j, tp := range tParts {
		for i, sp := range sParts {
			idx := len(kg.cells)
			kg.cells = append(kg.cells, cellVar{si: i, tj: j, jdcMask: (sp.mask & tp.mask) & jdcMaskAll})
			kg.byT[j] = append(kg.byT[j], idx)
			kg.byS[i] = append(kg.byS[i], idx)
		}
	}
	return kg
}

// solution holds per-cell values of the solved model.
type solution struct {
	x, d, f []int64
}
