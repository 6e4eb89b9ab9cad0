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
// the same way: each (column, chunk) task writes a disjoint range of its
// column, straight at the width that holds the column's largest value, so
// no column is ever held at int64 unless its values need it. dst itself is
// only touched from the calling goroutine.
//
// retain is the retention policy: with a nil set every non-key column is
// stored in dst (the in-memory run); otherwise only the listed ones are.
// Either way every column's layout is built, so Fill can later regenerate
// any unretained column chunk by chunk with byte-identical content.
//
// The call's time is added to tp.Stats.GenTime, the data-generation (GD)
// stage time reported by the Fig. 15 experiment.
func (tp *TablePlan) Materialize(ctx context.Context, dst *storage.TableData, seed int64, workers int, retain map[string]bool) error {
	start := time.Now()
	R := tp.Table.Rows
	var boundRows int64
	for _, b := range tp.Bound {
		boundRows += b.Card
	}
	if boundRows > R {
		return fmt.Errorf("nonkey: table %s: bound rows %d exceed table rows %d", tp.Table.Name, boundRows, R)
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
		return err
	}
	tp.gens = make(map[string]*ColumnGen, len(cols))
	for i := range cols {
		tp.gens[cols[i].Name] = gens[i]
	}

	store := make([]int, 0, len(cols))
	for i := range cols {
		if retain == nil || retain[cols[i].Name] {
			store = append(store, i)
		}
	}

	// Emit in chunks (the layout above is the GD work, this is the write
	// path): every (column, chunk) task fills a disjoint range of that
	// column's destination, so chunks parallelize freely. A chunk is
	// generated into the worker's scratch and written at the column's width.
	out := make([]*storage.Column, len(store))
	for i, c := range store {
		out[i] = storage.MakeColumn(int(R), gens[c].maxValue())
	}
	nChunks := int((R + fillChunkRows - 1) / fillChunkRows)
	scratch := make([][]int64, parallel.Workers(workers))
	if err := parallel.ForEachWorkerCtx(ctx, "nonkey/fill", workers, len(store)*nChunks, func(w, t int) error {
		tm := fillH.Start()
		c, b := t/nChunks, int64(t%nChunks)
		lo := b * fillChunkRows
		hi := min(lo+fillChunkRows, R)
		if scratch[w] == nil {
			scratch[w] = make([]int64, fillChunkRows)
		}
		buf := scratch[w][:hi-lo]
		gens[store[c]].Fill(buf, lo, hi)
		out[c].Set(int(lo), buf)
		tm.Stop()
		return nil
	}); err != nil {
		return err
	}
	for i, c := range store {
		dst.SetColumn(cols[c].Name, out[i])
	}
	tp.Stats.GenTime += time.Since(start)
	return nil
}

// gen returns the layout of the named column.
func (tp *TablePlan) gen(col string) (*ColumnGen, error) {
	g, ok := tp.gens[col]
	if !ok {
		return nil, fmt.Errorf("nonkey: table %s: no layout for column %s (not materialized yet?)", tp.Table.Name, col)
	}
	return g, nil
}

func colSeed(table, col string) int64 {
	h := fnv.New64a()
	h.Write([]byte(table))
	h.Write([]byte{0})
	h.Write([]byte(col))
	return int64(h.Sum64())
}
