package keygen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referencePopulateFKs is populateFKs as it was while the column was written
// in batches of batch rows, kept as TestPopulateMatchesBatchedReference's
// oracle: every cell's keys expanded into a round-robin stream of x values,
// the solution split across batches north-west-corner style (exact totals
// per cell and per batch), and each batch's rows written from the streams.
func referencePopulateFKs(batch int64, tRows int, kg *kgModel, sol *solution) ([]int64, error) {
	tParts := kg.tParts

	keys, err := allocateKeys(kg, sol)
	if err != nil {
		return nil, err
	}
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

	vals := make([]int64, tRows)
	if batch <= 0 {
		batch = int64(tRows)
	}
	if batch <= 0 {
		batch = 1
	}

	remaining := append([]int64(nil), sol.x...)
	streamPos := make([]int64, len(kg.cells))
	partPtr := make([]int, len(tParts))

	tCounts := make([]int64, len(tParts))
	xSplit := make([]int64, len(kg.cells))
	batchRows := make([][]int32, len(tParts))

	for lo := int64(0); lo < int64(tRows); lo += batch {
		hi := lo + batch
		if hi > int64(tRows) {
			hi = int64(tRows)
		}
		// Rows of each partition inside this batch.
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
	}
	return vals, nil
}

// randomParts deals rows 0..n-1 into at most k non-empty parts, rows
// ascending inside each, the way partition lays them out.
func randomParts(rng *rand.Rand, n, k int) []*part {
	parts := make([]*part, k)
	for i := range parts {
		parts[i] = &part{mask: uint64(i)}
	}
	for r := 0; r < n; r++ {
		p := parts[rng.Intn(k)]
		p.rows = append(p.rows, int32(r))
	}
	return slices.DeleteFunc(parts, func(p *part) bool { return len(p.rows) == 0 })
}

// Shapes of a random populate case: how each T partition's Σx compares with
// its row count.
const (
	sumExact = iota // Σx = |T_j| everywhere
	sumOver         // Σx > |T_j| somewhere: the walk truncates
	sumUnder        // Σx < |T_j| in one partition: an error
	numSumKinds
)

// randomPopulateCase draws a unit's S and T partitions and a solution over
// their cells. Keys come from allocateKeys' JDC-free path (each cell takes
// the first d rows of its S partition), so cells of different S partitions
// emit different keys, and d < x exercises the round-robin order.
func randomPopulateCase(rng *rand.Rand, kind int) (int, *kgModel, *solution) {
	tRows := 1 + rng.Intn(60)
	tParts := randomParts(rng, tRows, 1+rng.Intn(4))
	sParts := randomParts(rng, 1+rng.Intn(12), 1+rng.Intn(3))
	kg := buildModel(nil, sParts, tParts, nil, nil)
	x := make([]int64, len(kg.cells))
	for j, tp := range tParts {
		for range tp.rows {
			x[kg.byT[j][rng.Intn(len(kg.byT[j]))]]++
		}
	}
	switch kind {
	case sumOver:
		for j := range tParts {
			if j == 0 || rng.Intn(2) == 0 {
				x[kg.byT[j][rng.Intn(len(kg.byT[j]))]] += 1 + rng.Int63n(5)
			}
		}
	case sumUnder:
		var filled []int
		for _, ci := range kg.byT[rng.Intn(len(tParts))] {
			if x[ci] > 0 {
				filled = append(filled, ci)
			}
		}
		ci := filled[rng.Intn(len(filled))]
		x[ci] -= 1 + rng.Int63n(x[ci])
	}
	d := make([]int64, len(kg.cells))
	for ci, c := range kg.cells {
		if x[ci] > 0 {
			d[ci] = 1 + rng.Int63n(min(x[ci], int64(len(sParts[c.si].rows))))
		}
	}
	return tRows, kg, &solution{x: x, d: d, f: slices.Clone(d)}
}

// TestPopulateMatchesBatchedReference holds the one-pass populateFKs to the
// batched loop it replaced: on random partitions and solutions — Σx equal
// to, above and below each partition's row count, cells with fewer distinct
// keys than rows — the column is the same at every batch size, and both
// refuse the same solutions.
func TestPopulateMatchesBatchedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	roundRobin := 0
	for it := 0; it < 900; it++ {
		kind := it % numSumKinds
		tRows, kg, sol := randomPopulateCase(rng, kind)
		got, err := populateFKs(&Stats{}, tRows, kg, sol)
		if (err != nil) != (kind == sumUnder) {
			t.Fatalf("case %d (kind %d): err = %v", it, kind, err)
		}
		for _, batch := range []int64{1, 2, 3, 7, 70_000, int64(tRows)} {
			want, werr := referencePopulateFKs(batch, tRows, kg, sol)
			if (err != nil) != (werr != nil) {
				t.Fatalf("case %d (kind %d) batch %d: err = %v, reference err = %v", it, kind, batch, err, werr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("case %d (kind %d) batch %d:\n got %v\nwant %v", it, kind, batch, got, want)
			}
		}
		for ci := range kg.cells {
			if sol.d[ci] > 0 && sol.d[ci] < sol.x[ci] {
				roundRobin++
			}
		}
	}
	if roundRobin == 0 {
		t.Fatal("no cell drew fewer distinct keys than rows")
	}
}
