package storage

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/dbhammer/mirage/internal/relalg"
)

// exportChunkRows is the in-memory export's chunk: the rows ExportCSV
// encodes per buffer flush and the shard size ExportDir streams at. It is
// deliberately smaller than DefaultShardRows: behind the large live heap of
// a materialized database the per-table shard scratch and encode buffers
// pile up as garbage between collections, and 64Ki-row shards were measured
// to raise an SF-10 TPC-H export's peak RSS by 38% where 16Ki-row shards
// leave it within 3%.
const exportChunkRows = 16 * 1024

// appendHeader appends the CSV header line for the table's columns.
func appendHeader(dst []byte, names []string) []byte {
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
	}
	return append(dst, '\n')
}

// appendRows appends CSV lines for rows [0,n): cols[i][r] rendered through
// decs[i], one codec call per cell. It is the body of the reference encoder
// ExportCSV and has no production caller; StreamCSV renders the same bytes
// through a rowEncoder.
func appendRows(dst []byte, decs []Codec, cols [][]int64, n int) []byte {
	for r := 0; r < n; r++ {
		for i := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = decs[i].AppendDecode(dst, cols[i][r])
		}
		dst = append(dst, '\n')
	}
	return dst
}

// maxRenderDomain bounds the columns StreamCSV renders through a render
// table: a non-key column gets one when 0 < DomainSize ≤ maxRenderDomain
// and DomainSize ≤ the table's rows, so a table never costs more codec
// calls than the cells it serves, nor more than 64Ki entries.
const maxRenderDomain = 1 << 16

// renderTable holds the CSV bytes of every in-domain value of one column:
// for v in [1, d], arena[off[v-1]:off[v]] is the codec's AppendDecode(v)
// followed by the column's separator. The zero table (d = 0) serves no
// value.
type renderTable struct {
	d     uint64
	arena []byte
	off   []uint32
}

func newRenderTable(dec Codec, d int64, sep byte) renderTable {
	off := make([]uint32, d+1)
	var arena []byte
	for v := int64(1); v <= d; v++ {
		arena = append(dec.AppendDecode(arena, v), sep)
		if uint64(len(arena)) > math.MaxUint32 {
			return renderTable{} // offsets would overflow: stay on the codec
		}
		off[v] = uint32(len(arena))
	}
	return renderTable{d: uint64(d), arena: arena, off: off}
}

// rowEncoder is StreamCSV's encoder. A cell of a column with a render table
// whose value lies in [1, D] is one copy of the table's entry; every other
// cell — key columns, Null, 0, negatives, values past D, columns without a
// table — goes through the codec as in appendRows. Each entry is produced by
// the very codec call appendRows makes for that value, so the bytes equal
// appendRows'. Workers share one rowEncoder read-only.
type rowEncoder struct {
	decs []Codec
	seps []byte // ',' after every column but the last, '\n' after it
	tabs []renderTable
}

func newRowEncoder(meta *relalg.Table, codecs CodecSet, rows int64) *rowEncoder {
	n := len(meta.Columns)
	e := &rowEncoder{decs: make([]Codec, n), seps: make([]byte, n), tabs: make([]renderTable, n)}
	for i := range meta.Columns {
		c := &meta.Columns[i]
		e.decs[i] = codecs.For(meta.Name, c.Name)
		e.seps[i] = ','
		if i == n-1 {
			e.seps[i] = '\n'
		}
		if c.Kind == relalg.NonKey && c.DomainSize > 0 && c.DomainSize <= maxRenderDomain && c.DomainSize <= rows {
			e.tabs[i] = newRenderTable(e.decs[i], c.DomainSize, e.seps[i])
		}
	}
	return e
}

// appendRows appends the CSV lines of rows [0,n) of cols.
func (e *rowEncoder) appendRows(dst []byte, cols [][]int64, n int) []byte {
	for r := 0; r < n; r++ {
		for i, col := range cols {
			v := col[r]
			if t := &e.tabs[i]; uint64(v-1) < t.d {
				dst = append(dst, t.arena[t.off[v-1]:t.off[v]]...)
				continue
			}
			dst = append(e.decs[i].AppendDecode(dst, v), e.seps[i])
		}
	}
	return dst
}

// ExportCSV writes one table as CSV (header + rows), decoding values through
// the codec set. It is the sequential reference encoder the byte-identity
// tests compare StreamCSV against, and has no production caller: every
// export, in-memory or streamed, goes through StreamTable.
func ExportCSV(w io.Writer, t *TableData, codecs CodecSet) error {
	n := int64(t.Rows())
	names := make([]string, len(t.Meta.Columns))
	decs := make([]Codec, len(t.Meta.Columns))
	window := make([][]int64, len(t.Meta.Columns))
	for i := range t.Meta.Columns {
		names[i] = t.Meta.Columns[i].Name
		decs[i] = codecs.For(t.Meta.Name, names[i])
		window[i] = make([]int64, min(exportChunkRows, n))
	}
	if _, err := w.Write(appendHeader(nil, names)); err != nil {
		return err
	}
	var buf []byte
	for lo := int64(0); lo < n; lo += exportChunkRows {
		hi := min(lo+exportChunkRows, n)
		for i, name := range names {
			if err := t.Fill(name, window[i], lo, hi); err != nil {
				return fmt.Errorf("storage: export %s.%s: %w", t.Meta.Name, name, err)
			}
		}
		buf = appendRows(buf[:0], decs, window, int(hi-lo))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ExportDir writes every table of a materialized database as
// <dir>/<table>.csv, in deterministic (sorted) table order, through the same
// DirSink protocol streamed runs use: each file lands as .tmp, is fsynced and
// renamed on success and removed on failure. The first failure aborts the
// export, wrapped with the table it occurred in.
func ExportDir(dir string, db *DB, codecs CodecSet) error {
	sink := &DirSink{Dir: dir}
	names := make([]string, 0, len(db.Tables))
	for name := range db.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := StreamTable(context.TODO(), sink, TableSource(db.Tables[name]), codecs, exportChunkRows, 0, nil); err != nil {
			return fmt.Errorf("storage: export %s: %w", name, err)
		}
	}
	return nil
}

// StreamTable exports one table through the sink's protocol: OpenTable,
// StreamCSV, then Commit. On any failure — including a failed Commit, which
// with the durable DirSink leaves its .tmp file behind for retry — the
// writer is aborted, so no torn file survives. tap, when non-nil, receives
// the same content bytes as the table writer, before any sink-side
// compression; io.MultiWriter stops at the sink's error, so what tap saw is
// a prefix of what the sink accepted.
func StreamTable(ctx context.Context, sink Sink, src RowSource, codecs CodecSet, shardRows int64, workers int, tap io.Writer) (StreamStats, error) {
	tw, err := sink.OpenTable(src.Meta().Name)
	if err != nil {
		return StreamStats{}, err
	}
	var w io.Writer = tw
	if tap != nil {
		w = io.MultiWriter(tw, tap)
	}
	st, err := StreamCSV(ctx, w, src, codecs, shardRows, workers)
	if err == nil {
		err = tw.Commit()
	}
	if err != nil {
		_ = tw.Abort() // the failure that led here is the one to report
	}
	return st, err
}
