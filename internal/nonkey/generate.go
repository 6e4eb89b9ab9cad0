package nonkey

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/storage"
)

// fillChunkRows is the row count of one (column, chunk) fill task in
// Materialize: the unit of fill parallelism within a table.
const fillChunkRows = 70_000

// Materialize generates the table's non-key columns into dst (Section 4.3;
// the primary key is never stored, dst derives it). Bound-row blocks are
// written at the head of the table; every other cell receives its column's
// remaining value multiset through a per-column keyed permutation, so all
// UCC counts hold exactly while columns stay uncorrelated.
//
// Column layouts run on up to workers goroutines; each column's permutation
// is seeded by seed ⊕ colSeed(table, column), so the emitted bytes are
// independent of layout order and worker count. The fills are parallelized
// the same way (each (column, chunk) task writes a disjoint slice range);
// dst itself is only touched from the calling goroutine.
//
// retain is the retention policy: with a nil set every non-key column is
// stored in dst (the in-memory run); otherwise only the listed ones — plus,
// transiently, the columns the table's arithmetic constraints sample — are.
// Either way every column's layout is built, so Fill can later regenerate
// any unretained column chunk by chunk with byte-identical content.
//
// The returned duration is the data-generation (GD) stage time reported by
// the Fig. 15 experiment.
func (tp *TablePlan) Materialize(ctx context.Context, dst *storage.TableData, seed int64, workers int, retain map[string]bool) (time.Duration, error) {
	start := time.Now()
	R := tp.Table.Rows
	var boundRows int64
	for _, b := range tp.Bound {
		boundRows += b.Card
	}
	if boundRows > R {
		return 0, fmt.Errorf("nonkey: table %s: bound rows %d exceed table rows %d", tp.Table.Name, boundRows, R)
	}

	// Telemetry handles resolved once per table; nil (no-op) when disabled.
	reg := obs.From(ctx)
	layoutH := reg.Histogram("nonkey_layout_ns")
	fillH := reg.Histogram("nonkey_fill_ns")
	reg.Counter("nonkey_rows_total").Add(R)

	cols := tp.Table.NonKeys()
	gens := make([]*ColumnGen, len(cols))
	if err := parallel.ForEachCtx(ctx, "nonkey/layout", workers, len(cols), func(i int) error {
		tm := layoutH.Start()
		cp, ok := tp.Cols[cols[i].Name]
		if !ok {
			return fmt.Errorf("nonkey: table %s: column %s has no plan", tp.Table.Name, cols[i].Name)
		}
		g, err := newColumnGen(tp, cp, seed)
		if err != nil {
			return err
		}
		gens[i] = g
		tm.Stop()
		return nil
	}); err != nil {
		return 0, err
	}
	tp.gens = make(map[string]*ColumnGen, len(cols))
	for i := range cols {
		tp.gens[cols[i].Name] = gens[i]
	}

	// Pick the columns to store. Retained mode adds the ACC-sampled columns
	// transiently; the pipeline drops the ones not otherwise retained right
	// after the arithmetic parameters are instantiated.
	store := make([]int, 0, len(cols))
	if retain == nil {
		for i := range cols {
			store = append(store, i)
		}
	} else {
		accCols := tp.accColumns()
		for i := range cols {
			if retain[cols[i].Name] || accCols[cols[i].Name] {
				store = append(store, i)
			}
		}
	}

	// Emit in chunks (the layout above is the GD work, this is the write
	// path): every (column, chunk) task fills a disjoint range of that
	// column's destination slice, so chunks parallelize freely.
	out := make([][]int64, len(store))
	for i := range store {
		out[i] = make([]int64, R)
	}
	nChunks := int((R + fillChunkRows - 1) / fillChunkRows)
	if err := parallel.ForEachCtx(ctx, "nonkey/fill", workers, len(store)*nChunks, func(t int) error {
		tm := fillH.Start()
		c, b := t/nChunks, int64(t%nChunks)
		lo := b * fillChunkRows
		hi := min(lo+fillChunkRows, R)
		gens[store[c]].Fill(out[c][lo:hi], lo, hi)
		tm.Stop()
		return nil
	}); err != nil {
		return 0, err
	}
	for i, c := range store {
		dst.SetCol(cols[c].Name, out[i])
	}
	elapsed := time.Since(start)
	tp.Stats.GenTime += elapsed
	return elapsed, nil
}

// accColumns returns the set of columns sampled by the table's arithmetic
// constraints — these must be resident while InstantiateACCs runs.
func (tp *TablePlan) accColumns() map[string]bool {
	out := make(map[string]bool)
	var scratch []string
	for i := range tp.ACCs {
		scratch = tp.ACCs[i].pred.Columns(scratch[:0])
		for _, c := range scratch {
			out[c] = true
		}
	}
	return out
}

// Fill regenerates rows [lo,hi) of the named non-key column into
// dst[0:hi-lo], byte-identical to what Materialize stored (or would have
// stored) for those rows. It requires a prior Materialize call on this plan
// and is safe for concurrent use across shards.
func (tp *TablePlan) Fill(col string, dst []int64, lo, hi int64) error {
	if err := storage.CheckFillRange(tp.Table.Name, col, tp.Table.Rows, len(dst), lo, hi); err != nil {
		return fmt.Errorf("nonkey: %w", err)
	}
	return tp.fill(col, dst, lo, hi)
}

// fill is Fill for a range the caller has already checked.
func (tp *TablePlan) fill(col string, dst []int64, lo, hi int64) error {
	g, ok := tp.gens[col]
	if !ok {
		return fmt.Errorf("nonkey: table %s: no layout for column %s (not materialized yet?)", tp.Table.Name, col)
	}
	g.Fill(dst, lo, hi)
	return nil
}

func colSeed(table, col string) int64 {
	h := fnv.New64a()
	h.Write([]byte(table))
	h.Write([]byte{0})
	h.Write([]byte(col))
	return int64(h.Sum64())
}
