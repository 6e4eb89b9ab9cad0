package keygen

import (
	"context"
	"fmt"
	"slices"
	"time"
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
		// Group the partition's cells into classes by JDC-join mask and
		// carve one fresh-key block per class (F_M = Σ f over the class).
		classCells := make(map[uint64][]int)
		var masks []uint64
		for _, ci := range kg.byS[i] {
			m := kg.cells[ci].jdcMask
			if m == 0 {
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

// buildStreams expands every cell into its FK value sequence: the cell's
// distinct keys in round-robin order, totaling x values. Round-robin makes
// every prefix cover the distinct keys as fast as possible, so batch splits
// retain per-batch key diversity.
func buildStreams(kg *kgModel, sol *solution, keys [][]int64) ([][]int64, error) {
	streams := make([][]int64, len(kg.cells))
	for ci := range kg.cells {
		x, d := sol.x[ci], int64(len(keys[ci]))
		if x == 0 {
			continue
		}
		if d == 0 {
			return nil, fmt.Errorf("cell %d has %d fk slots but no keys", ci, x)
		}
		s := make([]int64, x)
		for n := int64(0); n < x; n++ {
			s[n] = keys[ci][n%d]
		}
		streams[ci] = s
	}
	return streams, nil
}

// populateFKs splits the global solution across batches (north-west corner
// transportation split: exact totals per cell and per batch) and returns the
// foreign-key column content for the caller to commit after the unit's wave
// joins. The split consumes every cell's stream in order, so the batch size
// cannot change the content.
func populateFKs(ctx context.Context, cfg Config, st *Stats, tRows int, kg *kgModel, sol *solution) ([]int64, error) {
	tParts := kg.tParts

	start := time.Now()
	keys, err := allocateKeys(kg, sol)
	if err != nil {
		return nil, err
	}
	streams, err := buildStreams(kg, sol, keys)
	if err != nil {
		return nil, err
	}
	st.PFTime += time.Since(start)

	vals := make([]int64, tRows)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = int64(tRows)
	}
	if batch <= 0 {
		batch = 1
	}

	remaining := append([]int64(nil), sol.x...)
	streamPos := make([]int64, len(kg.cells))
	partPtr := make([]int, len(tParts))

	// Per-round scratch: one split buffer and one row buffer per partition —
	// the batch loop allocates nothing per round at steady state.
	tCounts := make([]int64, len(tParts))
	xSplit := make([]int64, len(kg.cells))
	batchRows := make([][]int32, len(tParts))

	for lo := int64(0); lo < int64(tRows); lo += batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + batch
		if hi > int64(tRows) {
			hi = int64(tRows)
		}
		// Rows of each partition inside this batch.
		pfStart := time.Now()
		for j, tp := range tParts {
			batchRows[j] = batchRows[j][:0]
			p := partPtr[j]
			for p < len(tp.rows) && int64(tp.rows[p]) < hi {
				batchRows[j] = append(batchRows[j], tp.rows[p])
				p++
			}
			partPtr[j] = p
			tCounts[j] = int64(len(batchRows[j]))
		}
		// North-west split: walk each partition's cells in order, taking
		// from each cell's remaining budget.
		for ci := range xSplit {
			xSplit[ci] = 0
		}
		for j := range tParts {
			need := tCounts[j]
			for _, ci := range kg.byT[j] {
				if need == 0 {
					break
				}
				take := remaining[ci]
				if take > need {
					take = need
				}
				if take == 0 {
					continue
				}
				xSplit[ci] = take
				remaining[ci] -= take
				need -= take
			}
			if need != 0 {
				return nil, fmt.Errorf("internal: batch split leaves %d unfilled rows in partition T_%d", need, j)
			}
		}
		// Write this batch's foreign keys.
		for j := range tParts {
			rows := batchRows[j]
			r := 0
			for _, ci := range kg.byT[j] {
				for n := int64(0); n < xSplit[ci]; n++ {
					vals[rows[r]] = streams[ci][streamPos[ci]]
					streamPos[ci]++
					r++
				}
			}
		}
		st.PFTime += time.Since(pfStart)
		st.CPRounds++
	}
	return vals, nil
}
