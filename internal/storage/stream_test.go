package storage

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/relalg"
)

// streamSchema is a table wide enough to exercise every codec kind.
func streamSchema() *relalg.Schema {
	return &relalg.Schema{Tables: []*relalg.Table{{
		Name: "w", Rows: 0,
		Columns: []relalg.Column{
			{Name: "w_pk", Kind: relalg.PrimaryKey},
			{Name: "w_int", Kind: relalg.NonKey, DomainSize: 1000},
			{Name: "w_dec", Kind: relalg.NonKey, DomainSize: 1000},
			{Name: "w_date", Kind: relalg.NonKey, DomainSize: 1000},
			{Name: "w_dict", Kind: relalg.NonKey, DomainSize: 5},
		},
	}}}
}

func streamCodecs() CodecSet {
	return CodecSet{
		"w.w_int":  IntCodec{Base: -300, Step: 7},
		"w.w_dec":  DecimalCodec{Base: -5000, Step: 13, Scale: 2},
		"w.w_date": DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC), StepDays: 3},
		"w.w_dict": NewDictCodec([]string{"AIR", "RAIL", "SHIP", "TRUCK", "FOB"}),
	}
}

// streamTable builds a deterministic n-row table with nulls sprinkled in.
func streamTestTable(n int) *TableData {
	db := NewDB(streamSchema())
	t := db.Table("w")
	t.Meta.Rows = int64(n)
	mk := func(domain int64, null int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			if null > 0 && i%null == null-1 {
				vals[i] = Null
				continue
			}
			vals[i] = int64(i*2654435761)%domain + 1
		}
		return vals
	}
	t.SetCol("w_int", mk(1000, 17))
	t.SetCol("w_dec", mk(1000, 0))
	t.SetCol("w_date", mk(1000, 23))
	t.SetCol("w_dict", mk(5, 11))
	return t
}

// TestAppendDecodeMatchesDecode pins the zero-alloc append formatters to the
// string Decode implementations across the cardinality space, nulls included.
func TestAppendDecodeMatchesDecode(t *testing.T) {
	codecs := []Codec{
		IntCodec{},
		IntCodec{Base: -50, Step: 3},
		DecimalCodec{Base: -9900, Step: 7, Scale: 2},
		DecimalCodec{Base: 0, Step: 1, Scale: 4},
		DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)},
		DateCodec{Start: time.Date(2000, 6, 15, 0, 0, 0, 0, time.UTC), StepDays: 7},
		DateCodec{Start: time.Date(1998, 12, 20, 0, 0, 0, 0, time.UTC), StepDays: 11},
		NewDictCodec([]string{"A", "B", "C"}),
	}
	buf := make([]byte, 0, 64)
	for _, c := range codecs {
		for v := int64(1); v <= 5000; v++ {
			buf = c.AppendDecode(buf[:0], v)
			if got, want := string(buf), c.Decode(v); got != want {
				t.Fatalf("%T AppendDecode(%d) = %q, Decode = %q", c, v, got, want)
			}
		}
		buf = c.AppendDecode(buf[:0], Null)
		if string(buf) != "NULL" {
			t.Fatalf("%T AppendDecode(Null) = %q", c, buf)
		}
	}
}

// TestAppendDecodeAllocs pins the export hot path at zero allocations per
// value for every codec kind (the fmt.Sprintf formatter it replaced
// allocated twice per date cell).
func TestAppendDecodeAllocs(t *testing.T) {
	codecs := map[string]Codec{
		"int":  IntCodec{Base: 100, Step: 10},
		"dec":  DecimalCodec{Base: -500, Step: 3, Scale: 2},
		"date": DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)},
		"dict": NewDictCodec([]string{"AIR", "RAIL", "SHIP"}),
	}
	buf := make([]byte, 0, 64)
	v := int64(1)
	for name, c := range codecs {
		allocs := testing.AllocsPerRun(1000, func() {
			buf = c.AppendDecode(buf[:0], v)
			v = v%2000 + 1
		})
		if allocs != 0 {
			t.Errorf("%s: AppendDecode allocates %.1f per value, want 0", name, allocs)
		}
	}
}

// TestStreamCSVMatchesExportCSV is the byte-identity contract at the storage
// layer: the sharded parallel writer and the in-memory exporter must emit
// the same bytes at every worker count and shard size, including shard sizes
// that don't divide the row count and shards larger than the table. Both
// write the derived primary key: line r carries r+1 in the key column.
func TestStreamCSVMatchesExportCSV(t *testing.T) {
	td := streamTestTable(10_000)
	codecs := streamCodecs()
	var want strings.Builder
	if err := ExportCSV(&want, td, codecs); err != nil {
		t.Fatalf("ExportCSV: %v", err)
	}
	for r, line := range strings.Split(want.String(), "\n")[1:10_001] {
		if key, _, _ := strings.Cut(line, ","); key != fmt.Sprint(r+1) {
			t.Fatalf("ExportCSV line %d: key %q, want %d", r, key, r+1)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		for _, shardRows := range []int64{7, 1024, 1 << 20} {
			var got bytes.Buffer
			st, err := StreamCSV(context.Background(), &got, TableSource(td), codecs, shardRows, workers)
			if err != nil {
				t.Fatalf("StreamCSV(workers=%d, shard=%d): %v", workers, shardRows, err)
			}
			if got.String() != want.String() {
				t.Fatalf("StreamCSV(workers=%d, shard=%d): bytes differ from ExportCSV", workers, shardRows)
			}
			if st.Rows != 10_000 || st.Bytes != int64(got.Len()) {
				t.Fatalf("StreamCSV stats = %+v, want rows 10000 bytes %d", st, got.Len())
			}
			wantShards := int((10_000 + shardRows - 1) / shardRows)
			if st.Shards != wantShards {
				t.Fatalf("StreamCSV shards = %d, want %d", st.Shards, wantShards)
			}
		}
	}
}

// oracleCol is one column of a render-table oracle table: its codec and
// declared domain (a foreign key's: its referenced table's rows, 0 for a
// table the schema lacks), whether StreamCSV must render it through a
// table, and whether it must render a value one past its predecessor as the
// predecessor's decimal successor. An IntCodec column without a table holds
// runValues, any other oracleValues.
type oracleCol struct {
	kind   relalg.ColKind
	codec  Codec
	domain int64
	table  bool
	runs   bool
}

// oracleValues are n values of a domain-d column: mostly in [1, d], both
// ends included, with Null, 0, a negative and d+1 sprinkled in — the values
// a render table must leave to the codec.
func oracleValues(n int, d int64) []int64 {
	specials := []int64{1, d, Null, 0, -3, d + 1}
	vals := make([]int64, n)
	for i := range vals {
		if i%11 == 0 {
			vals[i] = specials[(i/11)%len(specials)]
			continue
		}
		vals[i] = int64(i*2654435761)%d + 1
	}
	return vals
}

// runValues are n values of a key-like column: runs of consecutive values
// that cross the decimal rollovers 9→10, 99→100, 999→1000 and 10^18−1→10^18,
// run up to MaxInt64 and past it into Null, and are broken by Null, 0, a
// negative, a repeat and jumps — the cells an in-place successor must leave
// to the codec.
func runValues(n int) []int64 {
	starts := []int64{1, 5, 97, 995, 99_998, 999_999_999_999_999_997, math.MaxInt64 - 2, -4}
	breaks := []int64{Null, 0, -3}
	vals := make([]int64, n)
	v := starts[0] - 1
	for i := range vals {
		switch {
		case i%29 == 28:
			vals[i] = breaks[(i/29)%len(breaks)] // the run resumes after it
			continue
		case i%41 == 40:
			v = starts[(i/41)%len(starts)]
		case i%13 == 12: // a repeat
		default:
			v++
		}
		vals[i] = v
	}
	return vals
}

// TestStreamCSVRenderTablesMatchExportCSV is the render-table oracle:
// StreamCSV must equal the per-cell reference encoder byte for byte whether
// a column renders through a table, through an in-place decimal successor
// or through its codec, with every codec kind as the last column (whose
// separator is '\n'), at both ends of the table bound and past it. Key
// columns render their successor across digit rollovers and restart it at
// every shard; a foreign key gets a table when the schema's referenced
// table is small enough and never without a schema.
func TestStreamCSVRenderTablesMatchExportCSV(t *testing.T) {
	long := NewDictCodec([]string{"a dictionary entry past sixteen bytes", "x", "another string of some length"})
	date := DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC), StepDays: 3}
	dec := DecimalCodec{Base: -5000, Step: 13, Scale: 2}
	ints := IntCodec{Base: -300, Step: 7}
	pk := oracleCol{relalg.PrimaryKey, IntCodec{}, 0, false, true}
	// small lays out the 3000-row cases: a column whose domain exceeds the
	// rows, a long-string dict, then last.
	small := func(last oracleCol) []oracleCol {
		return []oracleCol{pk, {relalg.NonKey, dec, 4000, false, false}, {relalg.NonKey, long, 3, true, false}, last}
	}
	cases := []struct {
		name string
		rows int
		cols []oracleCol // the first is the primary key
	}{
		{"bounds", maxRenderDomain + 5, []oracleCol{
			pk,
			{relalg.ForeignKey, IntCodec{}, 10, true, false},
			{relalg.ForeignKey, IntCodec{}, maxRenderDomain + 1, false, true},
			{relalg.NonKey, ints, 1, true, false},
			{relalg.NonKey, ints, maxRenderDomain, true, false},
			{relalg.NonKey, dec, maxRenderDomain + 1, false, false},
			{relalg.NonKey, long, 3, true, false},
			{relalg.NonKey, date, 2526, true, false},
		}},
		{"last int", 3000, small(oracleCol{relalg.NonKey, ints, 50, true, false})},
		{"last decimal", 3000, small(oracleCol{relalg.NonKey, dec, 1000, true, false})},
		{"last date", 3000, small(oracleCol{relalg.NonKey, date, 2526, true, false})},
		{"last dict", 3000, small(oracleCol{relalg.NonKey, long, 3, true, false})},
		{"last over rows", 3000, small(oracleCol{relalg.NonKey, date, 5000, false, false})},
		{"keys", 3000, []oracleCol{
			pk,
			{relalg.ForeignKey, IntCodec{}, 3000, true, false},       // referenced table as large as this one
			{relalg.ForeignKey, IntCodec{}, 3001, false, true},       // larger: on the codec
			{relalg.ForeignKey, IntCodec{}, 0, false, true},          // referenced table unknown
			{relalg.ForeignKey, IntCodec{Base: -5}, 0, false, true},  // runs through negative renderings
			{relalg.NonKey, IntCodec{Base: 1000}, 5000, false, true}, // a non-key column past its rows
			{relalg.NonKey, IntCodec{Step: 2}, 5000, false, false},   // step 2: no successor
			{relalg.ForeignKey, IntCodec{}, 0, false, true},          // last: '\n' after the successor
		}},
	}
	for _, tc := range cases {
		name := tc.name
		meta := &relalg.Table{Name: "o", Rows: int64(tc.rows)}
		schema := &relalg.Schema{Tables: []*relalg.Table{meta}}
		codecs := CodecSet{}
		for i, c := range tc.cols {
			col := relalg.Column{Name: fmt.Sprintf("c%d", i), Kind: c.kind, DomainSize: c.domain}
			if c.kind == relalg.ForeignKey {
				col.DomainSize, col.Refs = 0, "missing"
				if c.domain > 0 {
					col.Refs = fmt.Sprintf("r%d", i)
					schema.Tables = append(schema.Tables, &relalg.Table{Name: col.Refs, Rows: c.domain})
				}
			}
			meta.Columns = append(meta.Columns, col)
			codecs[codecs.Key("o", col.Name)] = c.codec
		}
		td := NewTableData(meta)
		for i, c := range tc.cols[1:] {
			vals := oracleValues(tc.rows, max(c.domain, 1))
			if _, ok := c.codec.(IntCodec); ok && !c.table {
				vals = runValues(tc.rows)
			}
			td.SetCol(meta.Columns[i+1].Name, vals)
		}
		enc := newRowEncoder(meta, codecs, schema, int64(tc.rows))
		for i, c := range tc.cols {
			if got := enc.tabs[i].d > 0; got != c.table {
				t.Fatalf("%s: column %d (domain %d) has a render table: %v, want %v", name, i, c.domain, got, c.table)
			}
			if got := enc.runs[i]; got != c.runs {
				t.Fatalf("%s: column %d renders successors: %v, want %v", name, i, got, c.runs)
			}
		}
		var want bytes.Buffer
		if err := ExportCSV(&want, td, codecs); err != nil {
			t.Fatalf("%s: ExportCSV: %v", name, err)
		}
		for _, sch := range []*relalg.Schema{nil, schema} {
			for _, workers := range []int{1, 4} {
				for _, shardRows := range []int64{7, 1024, 1 << 20} {
					var got bytes.Buffer
					if _, err := streamCSV(context.Background(), &got, TableSource(td), codecs, sch, shardRows, workers); err != nil {
						t.Fatalf("%s: StreamCSV(workers=%d, shard=%d, schema %v): %v", name, workers, shardRows, sch != nil, err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s: StreamCSV(workers=%d, shard=%d, schema %v): bytes differ from ExportCSV", name, workers, shardRows, sch != nil)
					}
				}
			}
		}
	}
}

// TestStreamCSVAllocs pins StreamCSV's encode loop at no per-cell
// allocation: four times the rows may cost only a few allocations per extra
// shard (encode buffers, growth), never one per row.
func TestStreamCSVAllocs(t *testing.T) {
	codecs := streamCodecs()
	allocs := func(rows int) float64 {
		src := TableSource(streamTestTable(rows))
		return testing.AllocsPerRun(5, func() {
			if _, err := StreamCSV(context.Background(), io.Discard, src, codecs, 0, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(64<<10), allocs(256<<10)
	t.Logf("allocations per StreamCSV call: %.0f at 64Ki rows, %.0f at 256Ki", small, big)
	const perShard = 32
	if extra := big - small; extra > 3*perShard {
		t.Fatalf("StreamCSV allocates %.0f at 64Ki rows, %.0f at 256Ki: %.0f more for 3 more shards, want ≤ %d",
			small, big, extra, 3*perShard)
	}
}

// TestStreamCSVTotalAlloc bounds the bytes one StreamCSV call allocates
// beyond its fill scratch (one shardRows-long int64 buffer per column): a
// call on one worker holds at most three encode buffers at once (encoding,
// queued, being written), and each is sized once at the largest shard plus
// a sixteenth, so it allocates at most 3·17/16 shards. A buffer grown by
// doubling from a small start instead allocates about five shards' worth
// before it fits one.
func TestStreamCSVTotalAlloc(t *testing.T) {
	const rows = 256 << 10
	src := TableSource(streamTestTable(rows))
	codecs := streamCodecs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := StreamCSV(context.Background(), io.Discard, src, codecs, 0, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	scratch := int64(len(src.Meta().Columns)) * DefaultShardRows * 8
	shard := st.Bytes / int64(st.Shards)
	allocated := int64(after.TotalAlloc-before.TotalAlloc) - scratch
	t.Logf("StreamCSV of %d rows: %d shards of ~%d bytes, %d bytes allocated beyond %d of scratch", rows, st.Shards, shard, allocated, scratch)
	if limit := 3*shard*17/16 + 256<<10; allocated > limit {
		t.Fatalf("StreamCSV allocated %d bytes beyond its scratch, want ≤ %d (three encode buffers of a %d-byte shard and a sixteenth)",
			allocated, limit, shard)
	}
}

// TestTableSourceFillRejectsBadRange: a TableSource Fill outside the table
// or into a destination shorter than the range fails with CheckFillRange's
// error and leaves dst untouched.
func TestTableSourceFillRejectsBadRange(t *testing.T) {
	const poison = int64(-7)
	td := streamTestTable(10)
	src := TableSource(td)
	for _, r := range []struct {
		lo, hi int64
		n      int
	}{
		{0, 8, 7},   // short dst
		{5, 4, 8},   // lo > hi
		{8, 11, 8},  // past the table
		{-1, 4, 8},  // negative lo
		{11, 12, 8}, // wholly past the table
	} {
		dst := make([]int64, r.n)
		for j := range dst {
			dst[j] = poison
		}
		err := src.Fill("w_int", dst, r.lo, r.hi)
		want := CheckFillRange("w", "w_int", 10, r.n, r.lo, r.hi)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Fill[%d,%d) into %d cells: err = %v, want %v", r.lo, r.hi, r.n, err, want)
		}
		for j, v := range dst {
			if v != poison {
				t.Fatalf("rejected Fill[%d,%d) wrote dst[%d]", r.lo, r.hi, j)
			}
		}
	}
	dst := make([]int64, 1)
	for _, r := range [][2]int64{{0, 0}, {10, 10}, {9, 10}} {
		if err := src.Fill("w_int", dst, r[0], r[1]); err != nil {
			t.Errorf("Fill[%d,%d): %v", r[0], r[1], err)
		}
	}
}

// BenchmarkStreamCSV encodes a lineitem-shaped table — primary key, three
// foreign keys and TPC-H's lineitem codecs and domains — at 256Ki rows into
// io.Discard, reporting MB/s of CSV.
func BenchmarkStreamCSV(b *testing.B) {
	const rows = 256 << 10
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	nonkey := []struct {
		name   string
		codec  Codec
		domain int64
	}{
		{"l_quantity", IntCodec{Base: 1}, 50},
		{"l_extendedprice", DecimalCodec{Base: 90000, Step: 100, Scale: 2}, 10000},
		{"l_discount", DecimalCodec{Base: 0, Step: 1, Scale: 2}, 11},
		{"l_tax", DecimalCodec{Base: 0, Step: 1, Scale: 2}, 9},
		{"l_returnflag", NewDictCodec([]string{"A", "N", "R"}), 3},
		{"l_linestatus", NewDictCodec([]string{"F", "O"}), 2},
		{"l_shipdate", DateCodec{Start: epoch}, 2526},
		{"l_commitdate", DateCodec{Start: epoch}, 2526},
		{"l_receiptdate", DateCodec{Start: epoch}, 2526},
		{"l_shipinstruct", NewDictCodec([]string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}), 4},
		{"l_shipmode", NewDictCodec([]string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}), 7},
	}
	fks := []struct {
		name string
		rows int64
	}{{"l_orderkey", rows / 4}, {"l_partkey", rows / 30}, {"l_suppkey", rows / 600}}
	meta := &relalg.Table{Name: "lineitem", Rows: rows, Columns: []relalg.Column{{Name: "l_pk", Kind: relalg.PrimaryKey}}}
	for _, fk := range fks {
		meta.Columns = append(meta.Columns, relalg.Column{Name: fk.name, Kind: relalg.ForeignKey})
	}
	codecs := CodecSet{}
	for _, c := range nonkey {
		meta.Columns = append(meta.Columns, relalg.Column{Name: c.name, Kind: relalg.NonKey, DomainSize: c.domain})
		codecs[codecs.Key("lineitem", c.name)] = c.codec
	}
	td := NewTableData(meta)
	rng := rand.New(rand.NewSource(1))
	fill := func(name string, d int64) {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(d) + 1
		}
		td.SetCol(name, vals)
	}
	for _, fk := range fks {
		fill(fk.name, fk.rows)
	}
	for _, c := range nonkey {
		fill(c.name, c.domain)
	}
	src := TableSource(td)
	st, err := StreamCSV(context.Background(), io.Discard, src, codecs, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamCSV(context.Background(), io.Discard, src, codecs, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// errAfterWriter fails with errBoom after n bytes have been accepted.
type errAfterWriter struct {
	n int
}

var errBoom = errors.New("sink full")

func (w *errAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, errBoom
	}
	return len(p), nil
}

// TestStreamCSVWriteError: a failing sink must surface its error and unwind
// the encoder pool (no deadlock, no goroutine leak waiting on the channel).
func TestStreamCSVWriteError(t *testing.T) {
	td := streamTestTable(10_000)
	_, err := StreamCSV(context.Background(), &errAfterWriter{n: 4096}, TableSource(td), streamCodecs(), 512, 4)
	if !errors.Is(err, errBoom) {
		t.Fatalf("StreamCSV with failing writer: err = %v, want errBoom", err)
	}
}

// TestStreamCSVCancel: cancelling the context aborts the stream with the
// context error.
func TestStreamCSVCancel(t *testing.T) {
	td := streamTestTable(10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := StreamCSV(ctx, io.Discard, TableSource(td), streamCodecs(), 512, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamCSV under canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestExportCSVRejectsUnmaterializedColumn(t *testing.T) {
	td := streamTestTable(100)
	td.SetCol("w_dec", nil) // dropped by out-of-core retention
	var sb strings.Builder
	err := ExportCSV(&sb, td, streamCodecs())
	if err == nil || !strings.Contains(err.Error(), "w_dec") {
		t.Fatalf("ExportCSV over dropped column: err = %v, want mention of w_dec", err)
	}
}

func TestSetRowsTracksDroppedColumns(t *testing.T) {
	td := streamTestTable(100)
	td.SetCol("w_int", nil)
	if td.Rows() != 100 {
		t.Fatalf("Rows after dropping a column = %d, want 100", td.Rows())
	}
	if err := td.CheckAligned(); err != nil {
		t.Fatalf("CheckAligned with dropped column: %v", err)
	}
}

// TestFillDerivesPrimaryKey: the primary key is stored nowhere, and Fill
// derives row r's key as r+1 over any [lo,hi); a bad range is CheckFillRange's
// error with dst untouched, a stored column is copied, and a column neither
// stored nor the key is the bare ErrNotMaterialized.
func TestFillDerivesPrimaryKey(t *testing.T) {
	const rows, poison = 1000, int64(-7)
	td := streamTestTable(rows)
	if td.Col("w_pk") != nil {
		t.Fatal("the primary key is stored")
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		lo := rng.Int63n(rows + 1)
		hi := lo + rng.Int63n(rows-lo+1)
		dst := make([]int64, hi-lo+rng.Int63n(3))
		if err := td.Fill("w_pk", dst, lo, hi); err != nil {
			t.Fatalf("Fill(w_pk, [%d,%d)): %v", lo, hi, err)
		}
		for j, v := range dst[:hi-lo] {
			if v != lo+int64(j)+1 {
				t.Fatalf("Fill(w_pk, [%d,%d)): row %d = %d, want %d", lo, hi, lo+int64(j), v, lo+int64(j)+1)
			}
		}
		if err := td.Fill("w_int", dst, lo, hi); err != nil || !slices.Equal(dst[:hi-lo], td.Col("w_int")[lo:hi]) {
			t.Fatalf("Fill(w_int, [%d,%d)) = %v, does not copy the stored column", lo, hi, err)
		}
	}
	for _, r := range []struct {
		lo, hi int64
		n      int
	}{{0, 8, 7}, {5, 4, 8}, {rows - 2, rows + 1, 8}, {-1, 4, 8}, {rows + 1, rows + 2, 8}} {
		dst := []int64{poison, poison, poison, poison, poison, poison, poison, poison}[:r.n]
		err := td.Fill("w_pk", dst, r.lo, r.hi)
		want := CheckFillRange("w", "w_pk", rows, r.n, r.lo, r.hi)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Fill(w_pk, [%d,%d)) into %d cells: err = %v, want %v", r.lo, r.hi, r.n, err, want)
		}
		if slices.ContainsFunc(dst, func(v int64) bool { return v != poison }) {
			t.Fatalf("rejected Fill(w_pk, [%d,%d)) wrote dst", r.lo, r.hi)
		}
	}
	td.SetCol("w_dec", nil)
	if err := td.Fill("w_dec", make([]int64, 4), 0, 4); err != ErrNotMaterialized {
		t.Fatalf("Fill(dropped column) = %v, want ErrNotMaterialized itself", err)
	}
	if err := td.Fill("nope", make([]int64, 4), 0, 4); err == nil || errors.Is(err, ErrNotMaterialized) {
		t.Fatalf("Fill(unknown column) = %v, want an unknown-column error", err)
	}
}

func TestDirSinkCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: filepath.Join(dir, "exp")}

	tw, err := sink.OpenTable("good")
	if err != nil {
		t.Fatalf("OpenTable: %v", err)
	}
	if _, err := io.WriteString(tw, "a,b\n1,2\n"); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := tw.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "exp", "good.csv"))
	if err != nil || string(got) != "a,b\n1,2\n" {
		t.Fatalf("committed file = %q, %v", got, err)
	}

	tw, err = sink.OpenTable("bad")
	if err != nil {
		t.Fatalf("OpenTable: %v", err)
	}
	io.WriteString(tw, "partial")
	if err := tw.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "exp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "good.csv" {
			t.Fatalf("unexpected file after abort: %s", e.Name())
		}
	}
}

// TestDirSinkLargeWrite: a Write longer than maxFileWrite reaches the file
// whole and in order, and reports the full length, whether or not the length
// is a multiple of the piece size.
func TestDirSinkLargeWrite(t *testing.T) {
	for _, n := range []int{maxFileWrite, maxFileWrite + 1, 3 * maxFileWrite, 3*maxFileWrite + 17} {
		dir := t.TempDir()
		tw, err := (&DirSink{Dir: dir}).OpenTable("big")
		if err != nil {
			t.Fatalf("OpenTable: %v", err)
		}
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*31 + i>>8)
		}
		if m, err := tw.Write(want); m != n || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", n, m, err)
		}
		if err := tw.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "big.csv"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes written, file has %d (%v), equal=%v", n, len(got), err, bytes.Equal(got, want))
		}
	}
}

func TestDirSinkGzip(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: dir, Gzip: true}
	tw, err := sink.OpenTable("z")
	if err != nil {
		t.Fatalf("OpenTable: %v", err)
	}
	io.WriteString(tw, "x\n1\n")
	if err := tw.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "z.csv.gz"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil || string(got) != "x\n1\n" {
		t.Fatalf("gunzipped = %q, %v", got, err)
	}
}

func TestCountSink(t *testing.T) {
	sink := &CountSink{}
	for i := 0; i < 3; i++ {
		tw, err := sink.OpenTable(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(tw, strings.Repeat("x", 10*(i+1)))
		if i == 2 {
			tw.Abort() // aborted tables must not count
			continue
		}
		if err := tw.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Commit(); err == nil {
			t.Fatal("double Commit: want error")
		}
	}
	if sink.Tables() != 2 || sink.Bytes() != 30 {
		t.Fatalf("CountSink = %d tables / %d bytes, want 2 / 30", sink.Tables(), sink.Bytes())
	}
}
