package keygen

import (
	"fmt"
	"slices"
	"time"

	"github.com/dbhammer/mirage/internal/storage"
)

// allocateKeys chooses, for every cell, the distinct primary keys of S_i
// that will populate its foreign keys. Distinct-key sets of cells that
// co-occur in any join's right view must be disjoint, or the join's JDC
// would fall short of the sum of its cells' d values. When a partition's
// total demand fits its key supply the allocation is globally disjoint
// (a simple cursor); otherwise keys are reused only across cells that never
// share a join (conflict-aware fallback).
func allocateKeys(kg *kgModel, sol *solution) ([][]int64, error) {
	keys := make([][]int64, len(kg.cells))
	for i, sp := range kg.sParts {
		supply := int64(len(sp.rows))
		// Group the partition's active (x > 0) cells into classes by
		// JDC-join mask and carve one fresh-key block per class (F_M = Σ f
		// over the class). An empty cell joins nothing, so it must not link
		// classes into one component: solveDFLocal budgets over the active
		// classes' components, and so does the carving below.
		classCells := make(map[uint64][]int)
		var masks []uint64
		for _, ci := range kg.byS[i] {
			m := kg.cells[ci].jdcMask
			if m == 0 || sol.x[ci] == 0 {
				continue
			}
			if _, ok := classCells[m]; !ok {
				masks = append(masks, m)
			}
			classCells[m] = append(classCells[m], ci)
		}
		slices.Sort(masks)
		// Blocks are carved per connected component of overlapping masks:
		// components never meet in a join, so their key ranges may alias.
		compID := componentsOf(masks)
		blocks := make(map[uint64][]int64, len(masks))
		ptr := make(map[uint64]int64, len(masks))
		cursorByComp := make(map[int]int64)
		for _, m := range masks {
			var fm int64
			for _, ci := range classCells[m] {
				fm += sol.f[ci]
			}
			cursor := cursorByComp[compID[m]]
			if cursor+fm > supply {
				return nil, fmt.Errorf("partition S_%d: fresh-key demand exceeds supply %d", i, supply)
			}
			blk := make([]int64, fm)
			for n := int64(0); n < fm; n++ {
				blk[n] = int64(sp.rows[cursor+n]) + 1
			}
			cursorByComp[compID[m]] = cursor + fm
			blocks[m] = blk
		}
		// Assign keys per cell: a cyclic window over the class block (so
		// that every block key is used by some class cell — the class's
		// joint contribution to each of its joins is exactly F_M distinct
		// keys), then reuse from strict-superset blocks for any remainder.
		for _, ci := range kg.byS[i] {
			c := kg.cells[ci]
			d := sol.d[ci]
			if d == 0 {
				continue
			}
			if c.jdcMask == 0 {
				// Invisible to every JDC join: any keys serve.
				if d > supply {
					return nil, fmt.Errorf("partition S_%d: cell needs %d distinct keys, supply %d", i, d, supply)
				}
				ks := make([]int64, d)
				for n := int64(0); n < d; n++ {
					ks[n] = int64(sp.rows[n]) + 1
				}
				keys[ci] = ks
				continue
			}
			blk := blocks[c.jdcMask]
			fm := int64(len(blk))
			take := d
			if take > fm {
				take = fm
			}
			ks := make([]int64, 0, d)
			for n := int64(0); n < take; n++ {
				ks = append(ks, blk[(ptr[c.jdcMask]+n)%fm])
			}
			ptr[c.jdcMask] += take
			// Remainder from superset blocks (disjoint from the class
			// block and from each other).
			if int64(len(ks)) < d {
				for _, m := range masks {
					if m == c.jdcMask || m&c.jdcMask != c.jdcMask {
						continue
					}
					for _, key := range blocks[m] {
						if int64(len(ks)) == d {
							break
						}
						ks = append(ks, key)
					}
					if int64(len(ks)) == d {
						break
					}
				}
			}
			if int64(len(ks)) < d {
				return nil, fmt.Errorf("partition S_%d: cell needs %d distinct keys but only %d reachable", i, d, len(ks))
			}
			keys[ci] = ks
		}
	}
	return keys, nil
}

// componentsOf groups masks into connected components of bit overlap.
func componentsOf(masks []uint64) map[uint64]int {
	parent := make([]int, len(masks))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i]&masks[j] != 0 {
				parent[find(i)] = find(j)
			}
		}
	}
	out := make(map[uint64]int, len(masks))
	for i, m := range masks {
		out[m] = find(i)
	}
	return out
}

// populateFKs writes the unit's solution into its foreign-key column in one
// pass and returns the column for the caller to commit after the unit's
// wave joins. The column is written at the width that holds sRows, the
// largest key. Each T partition's rows, in ascending order, are filled by
// walking the partition's cells in order (north-west corner rule): a cell
// takes min(x, rows still unfilled) rows and emits its distinct keys
// round-robin, so any prefix of a cell's rows covers its keys as fast as
// possible.
func populateFKs(st *Stats, tRows, sRows int, kg *kgModel, sol *solution) (*storage.Column, error) {
	start := time.Now()
	keys, err := allocateKeys(kg, sol)
	if err != nil {
		return nil, err
	}
	col := storage.MakeColumn(tRows, int64(sRows))
	switch col.Width() {
	case 1:
		err = placeFKs(storage.Values[uint8](col), kg, sol, keys)
	case 2:
		err = placeFKs(storage.Values[uint16](col), kg, sol, keys)
	case 4:
		err = placeFKs(storage.Values[uint32](col), kg, sol, keys)
	default:
		err = placeFKs(storage.Values[int64](col), kg, sol, keys)
	}
	if err != nil {
		return nil, err
	}
	st.PFTime += time.Since(start)
	st.CPRounds++
	return col, nil
}

// placeFKs is populateFKs' pass over the T partitions, writing each row's
// key into vals, the column at its width.
func placeFKs[T storage.Elem](vals []T, kg *kgModel, sol *solution, keys [][]int64) error {
	for j, tp := range kg.tParts {
		rows := tp.rows
		for _, ci := range kg.byT[j] {
			if len(rows) == 0 {
				break
			}
			take := min(sol.x[ci], int64(len(rows)))
			if take == 0 {
				continue
			}
			ks := keys[ci]
			d := int64(len(ks))
			if d == 0 {
				return fmt.Errorf("cell %d has %d fk slots but no keys", ci, sol.x[ci])
			}
			for n, r := range rows[:take] {
				vals[r] = T(ks[int64(n)%d])
			}
			rows = rows[take:]
		}
		if len(rows) != 0 {
			return fmt.Errorf("internal: solution leaves %d unfilled rows in partition T_%d", len(rows), j)
		}
	}
	return nil
}
