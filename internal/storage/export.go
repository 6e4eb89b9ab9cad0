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
// pile up as garbage between collections. Measured again with columns stored
// at their domain's width and one encode buffer per pool slot (the
// benchmark's in-memory runs, 2 vCPUs, medians of alternating pairs),
// ExportDir at 64Ki-row shards raised the SF-10 TPC-H run's peak RSS from
// 70.7 to 108.2 MB (+53 %, 6 of 6 pairs) and the SF-40 SSB run's from 124.0
// to 128.0 MB (+3 %, against a quartile spread of 2.6 MB).
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
// and DomainSize ≤ the table's rows, and a foreign key when its referenced
// table's row count is, so a table never costs more codec calls than the
// cells it serves, nor more than 64Ki entries.
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
// whose value lies in [1, D] is one copy of the table's entry. A cell of a
// column whose codec is an IntCodec of step 1 (every key column) that holds
// its predecessor's value plus one is that predecessor's digits, copied and
// incremented in place. Every other cell — Null, 0, negatives, values past
// D, a shard's first row, columns without either — goes through the codec
// as in appendRows. A table entry is produced by the very codec call
// appendRows makes for that value, and an IntCodec of step 1 renders v+1 as
// the decimal successor of v's rendering, so the bytes equal appendRows'.
// Workers share one rowEncoder read-only.
type rowEncoder struct {
	decs []Codec
	seps []byte // ',' after every column but the last, '\n' after it
	tabs []renderTable
	runs []bool // IntCodec of step 1 and no render table
	// rowHint is an estimate of one row's CSV bytes: per column, a render
	// table's mean entry, or else the rendering of its largest value.
	rowHint int
}

// newRowEncoder builds the encoder of a table of rows rows. schema, when
// non-nil, gives the referenced tables' row counts that foreign keys'
// render tables need; without it keys render through the codec.
func newRowEncoder(meta *relalg.Table, codecs CodecSet, schema *relalg.Schema, rows int64) *rowEncoder {
	n := len(meta.Columns)
	e := &rowEncoder{decs: make([]Codec, n), seps: make([]byte, n), tabs: make([]renderTable, n), runs: make([]bool, n)}
	for i := range meta.Columns {
		c := &meta.Columns[i]
		e.decs[i] = codecs.For(meta.Name, c.Name)
		e.seps[i] = ','
		if i == n-1 {
			e.seps[i] = '\n'
		}
		// domain is the column's largest value: the primary key's is rows,
		// which also stands in for a key whose referenced table is unknown.
		domain, known := rows, false
		switch c.Kind {
		case relalg.NonKey:
			domain, known = c.DomainSize, true
		case relalg.ForeignKey:
			if schema != nil {
				if ref := schema.Table(c.Refs); ref != nil {
					domain, known = ref.Rows, true
				}
			}
		}
		if known && domain > 0 && domain <= maxRenderDomain && domain <= rows {
			e.tabs[i] = newRenderTable(e.decs[i], domain, e.seps[i])
			e.rowHint += len(e.tabs[i].arena) / int(domain)
			continue
		}
		if ic, ok := e.decs[i].(IntCodec); ok && ic.step() == 1 {
			e.runs[i] = true
		}
		e.rowHint += len(e.decs[i].AppendDecode(nil, max(domain, 1))) + 1
	}
	return e
}

// lastCell is where a runs column's previous cell of the current call was
// rendered: dst[start:end] holds the digits of v, or end == start when they
// are not a plain decimal a successor can be derived from.
type lastCell struct {
	v          int64
	start, end int
}

// appendRows appends the CSV lines of rows [0,n) of cols.
func (e *rowEncoder) appendRows(dst []byte, cols [][]int64, n int) []byte {
	last := make([]lastCell, len(cols))
	for r := 0; r < n; r++ {
		for i, col := range cols {
			v := col[r]
			if t := &e.tabs[i]; uint64(v-1) < t.d {
				dst = append(dst, t.arena[t.off[v-1]:t.off[v]]...)
				continue
			}
			if !e.runs[i] {
				dst = append(e.decs[i].AppendDecode(dst, v), e.seps[i])
				continue
			}
			p, start := &last[i], len(dst)
			if v == p.v+1 && p.end > p.start {
				dst = incDecimal(append(dst, dst[p.start:p.end]...), start)
			} else {
				dst = e.decs[i].AppendDecode(dst, v)
			}
			p.v, p.start, p.end = v, start, len(dst)
			// Below 19 digits the successor cannot overflow int64; a
			// leading '-' or 'N' (Null) is not a counter.
			if d := dst[start]; p.end-start >= 19 || d < '0' || d > '9' {
				p.end = start
			}
			dst = append(dst, e.seps[i])
		}
	}
	return dst
}

// incDecimal adds one to the non-negative decimal in d[start:], in place;
// an all-nines number grows by one digit.
func incDecimal(d []byte, start int) []byte {
	j := len(d) - 1
	for j >= start && d[j] == '9' {
		d[j] = '0'
		j--
	}
	if j >= start {
		d[j]++
		return d
	}
	d[start] = '1'
	return append(d, '0')
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

// ExportDir is ExportDirCtx without a context.
func ExportDir(dir string, db *DB, codecs CodecSet) error {
	return ExportDirCtx(context.Background(), dir, db, codecs)
}

// ExportDirCtx writes every table of a materialized database as
// <dir>/<table>.csv, in deterministic (sorted) table order, through the same
// DirSink protocol streamed runs use: each file lands as .tmp, is fsynced and
// renamed on success and removed on failure. The first failure aborts the
// export, wrapped with the table it occurred in; a cancelled ctx is one, at
// the next shard of the table in flight.
func ExportDirCtx(ctx context.Context, dir string, db *DB, codecs CodecSet) error {
	sink := &DirSink{Dir: dir}
	names := make([]string, 0, len(db.Tables))
	for name := range db.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := StreamTable(ctx, sink, TableSource(db.Tables[name]), codecs, db.Schema, exportChunkRows, 0, nil); err != nil {
			return fmt.Errorf("storage: export %s: %w", name, err)
		}
	}
	return nil
}

// StreamTable exports one table through the sink's protocol: OpenTable,
// StreamCSV, then Commit. schema is the table's schema, read for the row
// counts of the tables its foreign keys reference (nil: keys render through
// their codec, as StreamCSV renders them). On any failure — including a
// failed Commit, which with the durable DirSink leaves its .tmp file behind
// for retry — the writer is aborted, so no torn file survives. tap, when non-nil, receives
// the same content bytes as the table writer, before any sink-side
// compression; io.MultiWriter stops at the sink's error, so what tap saw is
// a prefix of what the sink accepted.
func StreamTable(ctx context.Context, sink Sink, src RowSource, codecs CodecSet, schema *relalg.Schema, shardRows int64, workers int, tap io.Writer) (StreamStats, error) {
	tw, err := sink.OpenTable(src.Meta().Name)
	if err != nil {
		return StreamStats{}, err
	}
	var w io.Writer = tw
	if tap != nil {
		w = io.MultiWriter(tw, tap)
	}
	st, err := streamCSV(ctx, w, src, codecs, schema, shardRows, workers)
	if err == nil {
		err = tw.Commit()
	}
	if err != nil {
		_ = tw.Abort() // the failure that led here is the one to report
	}
	return st, err
}
