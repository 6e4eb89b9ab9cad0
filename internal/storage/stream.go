package storage

import (
	"context"
	"fmt"
	"io"
	"sync"

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

// StreamCSV writes src as CSV to w: shards of shardRows rows are filled and
// encoded in parallel on up to workers goroutines (stage "export/shard", so
// the pool's cancellation, panic containment and fault injection apply),
// then committed to w strictly in shard order by a single writer goroutine.
// The bytes are therefore identical at any worker count and any shard size.
// Cells render through per-column render tables built once per call (see
// rowEncoder), whose entries are the codec calls ExportCSV makes per cell,
// so the bytes are also identical to ExportCSV over the same data. Peak
// memory is O(workers × shardRows) plus at most 64Ki entries per column,
// not O(table).
func StreamCSV(ctx context.Context, w io.Writer, src RowSource, codecs CodecSet, shardRows int64, workers int) (StreamStats, error) {
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
	enc := newRowEncoder(meta, codecs, n)

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

	// The writer goroutine is the only one touching w: encoded shards
	// arrive over ch in completion order and are buffered (bounded by the
	// in-flight worker count) until their turn. A write failure cancels
	// the encoder pool so the run unwinds instead of encoding into a dead
	// sink.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type shard struct {
		idx int
		buf *[]byte
	}
	ch := make(chan shard, workers)
	bufPool := sync.Pool{New: func() any { b := make([]byte, 0, 1<<16); return &b }}
	var wErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		next := 0
		pending := make(map[int]*[]byte, workers+1)
		for sb := range ch {
			pending[sb.idx] = sb.buf
			for {
				b, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if wErr == nil {
					if _, err := w.Write(*b); err != nil {
						wErr = err
						cancel()
					} else {
						stats.Bytes += int64(len(*b))
						liveBytes.Add(int64(len(*b)))
						hi := int64(next+1) * shardRows
						if hi > n {
							hi = n
						}
						liveRows.Add(hi - int64(next)*shardRows)
					}
				}
				*b = (*b)[:0]
				bufPool.Put(b)
				next++
			}
		}
	}()

	scratch := make([][][]int64, workers)
	window := make([][][]int64, workers)
	err := parallel.ForEachWorkerCtx(cctx, "export/shard", workers, shards, func(wk, i int) error {
		lo := int64(i) * shardRows
		hi := lo + shardRows
		if hi > n {
			hi = n
		}
		if scratch[wk] == nil {
			scratch[wk] = make([][]int64, len(meta.Columns))
			window[wk] = make([][]int64, len(meta.Columns))
			for c := range scratch[wk] {
				scratch[wk][c] = make([]int64, shardRows)
			}
		}
		for c := range meta.Columns {
			window[wk][c] = scratch[wk][c][:hi-lo]
			if err := src.Fill(meta.Columns[c].Name, window[wk][c], lo, hi); err != nil {
				return err
			}
		}
		bp := bufPool.Get().(*[]byte)
		*bp = enc.appendRows((*bp)[:0], window[wk], int(hi-lo))
		select {
		case ch <- shard{i, bp}:
			return nil
		case <-cctx.Done():
			return cctx.Err()
		}
	})
	close(ch)
	<-writerDone
	if wErr != nil {
		return stats, wErr
	}
	if err != nil {
		return stats, err
	}
	stats.Rows = n
	return stats, nil
}
