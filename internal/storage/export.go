package storage

import (
	"context"
	"fmt"
	"io"
	"sort"
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

// appendRows appends CSV lines for rows [lo,hi): cols[i][r-lo] rendered
// through decs[i]. StreamCSV and the reference encoder ExportCSV both
// encode through this one function, which is what makes their bytes
// identical.
func appendRows(dst []byte, decs []Codec, cols [][]int64, lo, hi int) []byte {
	for r := lo; r < hi; r++ {
		for i := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = decs[i].AppendDecode(dst, cols[i][r-lo])
		}
		dst = append(dst, '\n')
	}
	return dst
}

// ExportCSV writes one table as CSV (header + rows), decoding values through
// the codec set. It is the sequential reference encoder the byte-identity
// tests compare StreamCSV against, and has no production caller: every
// export, in-memory or streamed, goes through StreamTable.
func ExportCSV(w io.Writer, t *TableData, codecs CodecSet) error {
	names := make([]string, len(t.Meta.Columns))
	for i := range t.Meta.Columns {
		names[i] = t.Meta.Columns[i].Name
	}
	n := t.Rows()
	cols := make([][]int64, len(t.Meta.Columns))
	decs := make([]Codec, len(t.Meta.Columns))
	for i := range t.Meta.Columns {
		c := &t.Meta.Columns[i]
		vals, err := t.Lookup(c.Name)
		if err != nil {
			return err
		}
		if vals == nil && n > 0 {
			return fmt.Errorf("storage: export %s: column %s not materialized", t.Meta.Name, c.Name)
		}
		cols[i] = vals
		decs[i] = codecs.For(t.Meta.Name, c.Name)
	}
	buf := appendHeader(nil, names)
	window := make([][]int64, len(cols))
	for lo := 0; ; lo += exportChunkRows {
		hi := lo + exportChunkRows
		if hi > n {
			hi = n
		}
		for i := range cols {
			window[i] = cols[i][lo:hi]
		}
		buf = appendRows(buf, decs, window, lo, hi)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
		if hi == n {
			return nil
		}
	}
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
