package storage

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	t.FillPK(n)
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
// that don't divide the row count and shards larger than the table.
func TestStreamCSVMatchesExportCSV(t *testing.T) {
	td := streamTestTable(10_000)
	codecs := streamCodecs()
	var want strings.Builder
	if err := ExportCSV(&want, td, codecs); err != nil {
		t.Fatalf("ExportCSV: %v", err)
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
