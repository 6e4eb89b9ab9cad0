package storage

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
)

// DefaultShardRows is the streaming exporter's default shard size: large
// enough to amortize scheduling, small enough that per-worker scratch stays
// a few megabytes per table regardless of table size.
const DefaultShardRows = 64 * 1024

// RowSource supplies one table's rows to the streaming exporter without
// requiring them to be resident: Fill regenerates (or copies) any [lo,hi)
// chunk of any column on demand. Implementations must be safe for
// concurrent Fill calls — shards are encoded in parallel.
type RowSource interface {
	// Meta is the table being exported (column order = CSV column order).
	Meta() *relalg.Table
	// NumRows is the table's total row count.
	NumRows() int64
	// Fill writes rows [lo,hi) of the named column into dst[0:hi-lo].
	Fill(col string, dst []int64, lo, hi int64) error
}

// CheckFillRange is the argument check of a Fill(col, dst, lo, hi) call on a
// table of rows rows: the range must lie inside the table and fit dst. The
// chunk regenerators need it — a column layout asked for rows past its table
// does not fail, it makes up valid-looking values.
func CheckFillRange(table, col string, rows int64, dstLen int, lo, hi int64) error {
	if lo < 0 || lo > hi || hi > rows || int64(dstLen) < hi-lo {
		return fmt.Errorf("fill %s.%s [%d,%d) into %d cells: range must lie in [0,%d] and fit the destination",
			table, col, lo, hi, dstLen, rows)
	}
	return nil
}

// TableSource adapts a fully materialized table as a RowSource, so the
// streaming writer can also serve in-memory databases (and the golden tests
// can compare both paths over identical data).
func TableSource(t *TableData) RowSource { return tableSource{t} }

type tableSource struct{ t *TableData }

func (s tableSource) Meta() *relalg.Table { return s.t.Meta }
func (s tableSource) NumRows() int64      { return int64(s.t.Rows()) }

func (s tableSource) Fill(col string, dst []int64, lo, hi int64) error {
	err := s.t.Fill(col, dst, lo, hi)
	if err == ErrNotMaterialized {
		return fmt.Errorf("storage: %s.%s: %w", s.t.Meta.Name, col, err)
	}
	return err
}

// StreamStats reports one streamed table.
type StreamStats struct {
	Rows   int64
	Bytes  int64
	Shards int
}

// StreamCSV writes src as CSV to w: shards of shardRows rows are the items of
// a parallel.OrderedCtx pool (stage "export/shard", so its cancellation,
// panic containment and fault injection apply), filled and encoded on up to
// workers goroutines and written to w strictly in shard order on the calling
// goroutine. The bytes are therefore identical at any worker count and any
// shard size. Cells render through per-column render tables built once per
// call and key columns through an in-place decimal successor (see
// rowEncoder), which reproduce the codec calls ExportCSV makes per cell, so
// the bytes are also identical to ExportCSV over the same data. Peak memory
// is O(workers × shardRows) plus at most 64Ki entries per column, not
// O(table): each pool slot owns one encode buffer, sized once, from the
// encoder's row estimate for the first shards and from the largest shard
// encoded so far, plus 1/16, for later ones, and reused rather than grown by
// doubling.
//
// StreamCSV knows no schema, so foreign keys render through their codec;
// StreamTable, given the schema, renders a key whose referenced table is
// small through a render table.
func StreamCSV(ctx context.Context, w io.Writer, src RowSource, codecs CodecSet, shardRows int64, workers int) (StreamStats, error) {
	return streamCSV(ctx, w, src, codecs, nil, shardRows, workers)
}

func streamCSV(ctx context.Context, w io.Writer, src RowSource, codecs CodecSet, schema *relalg.Schema, shardRows int64, workers int) (StreamStats, error) {
	meta := src.Meta()
	n := src.NumRows()
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	if n > 0 && shardRows > n {
		shardRows = n // scratch is sized by shardRows; never above the table
	}
	workers = parallel.Workers(workers)
	names := make([]string, len(meta.Columns))
	for i := range meta.Columns {
		names[i] = meta.Columns[i].Name
	}
	enc := newRowEncoder(meta, codecs, schema, n)

	// Live counters, advanced per committed shard so mid-table progress is
	// visible while the table streams.
	reg := obs.From(ctx)
	liveRows := reg.Counter("export_rows_streamed_total")
	liveBytes := reg.Counter("export_bytes_streamed_total")

	var stats StreamStats
	header := appendHeader(nil, names)
	if _, err := w.Write(header); err != nil {
		return stats, err
	}
	stats.Bytes = int64(len(header))
	liveBytes.Add(int64(len(header)))
	shards := 0
	if n > 0 {
		shards = int((n + shardRows - 1) / shardRows)
	}
	stats.Shards = shards

	// Workers own their fill scratch, pool slots their encode buffers: a
	// shard's buffer stays its own until the calling goroutine has written
	// it, so the slots in flight bound the buffers a table allocates.
	scratch := make([][][]int64, workers)
	bufs := make([][]byte, parallel.Slots(workers))
	var largest atomic.Int64 // bytes of the largest shard encoded so far
	run := func(wk, slot, i int) error {
		lo := int64(i) * shardRows
		hi := min(lo+shardRows, n)
		if scratch[wk] == nil {
			scratch[wk] = make([][]int64, len(meta.Columns))
			for c := range scratch[wk] {
				scratch[wk][c] = make([]int64, shardRows)
			}
		}
		for c, name := range names {
			if err := src.Fill(name, scratch[wk][c][:hi-lo], lo, hi); err != nil {
				return err
			}
		}
		if bufs[slot] == nil {
			size := int(largest.Load())
			if size == 0 {
				size = enc.rowHint * int(shardRows)
			}
			bufs[slot] = make([]byte, 0, size+size/16)
		}
		bufs[slot] = enc.appendRows(bufs[slot][:0], scratch[wk], int(hi-lo))
		for size := int64(len(bufs[slot])); ; {
			if l := largest.Load(); size <= l || largest.CompareAndSwap(l, size) {
				break
			}
		}
		return nil
	}
	commit := func(slot, i int) error {
		b := bufs[slot]
		if _, err := w.Write(b); err != nil {
			return err
		}
		stats.Bytes += int64(len(b))
		liveBytes.Add(int64(len(b)))
		lo := int64(i) * shardRows
		liveRows.Add(min(lo+shardRows, n) - lo)
		return nil
	}
	err := parallel.OrderedCtx(ctx, "export/shard", workers, shards, run, commit)
	if err != nil {
		return stats, err
	}
	stats.Rows = n
	return stats, nil
}
