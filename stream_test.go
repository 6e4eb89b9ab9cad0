package mirage

// End-to-end tests of out-of-core generation: the streamed export must be
// byte-identical to the in-memory pipeline's CSV export for every workload,
// at any parallelism and shard size, and a failed shard must abort without
// leaving torn or temporary files behind.

import (
	"context"
	"errors"
	"hash/fnv"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

// streamProblem builds a fresh problem for one generation run (problems are
// single-use: generation instantiates the workload's parameters).
func streamProblem(t *testing.T, name string, sf float64) *Problem {
	t.Helper()
	return streamProblemWithout(context.Background(), t, name, sf, "")
}

// streamProblemWithout is streamProblem minus the templates whose name
// starts with prefix ("" drops none), built under ctx.
func streamProblemWithout(ctx context.Context, t *testing.T, name string, sf float64, prefix string) *Problem {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(sf)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if prefix != "" {
		w.Templates = slices.DeleteFunc(w.Templates, func(q *relalg.AQT) bool {
			return strings.HasPrefix(q.Name, prefix)
		})
	}
	prob, err := BuildProblemCtx(ctx, original, w)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// goldenCSVs generates in-memory and exports every table, returning
// table name -> CSV bytes.
func goldenCSVs(t *testing.T, name string, sf float64) map[string]string {
	t.Helper()
	prob := streamProblem(t, name, sf)
	res, err := Generate(prob, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportCSVDir(dir, res.DB, prob.Workload.Codecs); err != nil {
		t.Fatal(err)
	}
	return readCSVDir(t, dir)
}

func readCSVDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".csv") {
			t.Fatalf("unexpected file in export dir: %s", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(e.Name(), ".csv")] = string(b)
	}
	return out
}

// TestStreamedExportMatchesInMemory is the PR's correctness bar: for SSB and
// TPC-H, the streamed files must equal the in-memory export byte for byte at
// parallelism 1, 4 and 8 and across shard sizes — including one that doesn't
// divide any table and one larger than every table.
func TestStreamedExportMatchesInMemory(t *testing.T) {
	cases := []struct {
		workload string
		sf       float64
	}{
		{"ssb", 0.2},
		{"tpch", 0.1},
	}
	type cfg struct {
		par       int
		shardRows int64
	}
	cfgs := []cfg{
		{1, 1000}, {4, 1000}, {8, 1000},
		{4, 977},     // prime, divides nothing
		{4, 1 << 30}, // single shard per table
		{8, 0},       // default shard size
	}
	for _, tc := range cases {
		want := goldenCSVs(t, tc.workload, tc.sf)
		for _, c := range cfgs {
			prob := streamProblem(t, tc.workload, tc.sf)
			dir := t.TempDir()
			sink := &storage.DirSink{Dir: dir}
			res, err := GenerateStream(prob, Options{Seed: 3, Parallelism: c.par},
				StreamConfig{Sink: sink, ShardRows: c.shardRows})
			if err != nil {
				t.Fatalf("%s par=%d shard=%d: %v", tc.workload, c.par, c.shardRows, err)
			}
			got := readCSVDir(t, dir)
			if len(got) != len(want) {
				t.Fatalf("%s par=%d shard=%d: %d tables streamed, want %d", tc.workload, c.par, c.shardRows, len(got), len(want))
			}
			var bytes int64
			for name, wantCSV := range want {
				gotCSV, ok := got[name]
				if !ok {
					t.Fatalf("%s par=%d shard=%d: table %s missing", tc.workload, c.par, c.shardRows, name)
				}
				if gotCSV != wantCSV {
					t.Fatalf("%s par=%d shard=%d: table %s bytes differ from in-memory export", tc.workload, c.par, c.shardRows, name)
				}
				bytes += int64(len(wantCSV))
			}
			if !res.Streamed || res.Export.Tables != len(want) || res.Export.Bytes != bytes {
				t.Fatalf("%s par=%d shard=%d: export stats %+v, want %d tables / %d bytes",
					tc.workload, c.par, c.shardRows, res.Export, len(want), bytes)
			}
		}
	}
}

// TestStreamedValidation: with RetainForValidate set, a streamed run keeps
// enough columns resident to replay the workload — and SSB must still
// validate exactly, proving retention kept everything the constraints touch.
func TestStreamedValidation(t *testing.T) {
	prob := streamProblem(t, "ssb", 0.2)
	res, err := GenerateStream(prob, Options{Seed: 3},
		StreamConfig{Sink: &storage.CountSink{}, RetainForValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Validate(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Unsupported {
			t.Errorf("%s: unsupported: %s", r.Query, r.Err)
			continue
		}
		if r.RelError > 0 {
			t.Errorf("%s: relative error %.6f, want 0", r.Query, r.RelError)
		}
	}
}

// TestValidateRefusesStreamedRunWithoutRetention: a streamed run that kept
// only keygen's working set cannot replay the workload, and Validate says so
// up front, naming the option that would have kept the columns, instead of
// failing inside a query.
func TestValidateRefusesStreamedRunWithoutRetention(t *testing.T) {
	res, err := GenerateStream(streamProblem(t, "ssb", 0.2), Options{Seed: 3}, StreamConfig{Sink: &storage.CountSink{}})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Validate(res)
	if err == nil || !strings.Contains(err.Error(), "StreamConfig.RetainForValidate") || reports != nil {
		t.Fatalf("Validate = %d reports, %v; want a refusal naming StreamConfig.RetainForValidate", len(reports), err)
	}
}

// TestStreamedFaultAbortsCleanly injects a failure into the shard encoder
// pool and asserts the contract on the output directory: the failed table is
// aborted (no file at all), no .tmp files survive anywhere, and every file
// that was committed before the fault is complete and byte-identical to the
// in-memory export.
func TestStreamedFaultAbortsCleanly(t *testing.T) {
	want := goldenCSVs(t, "ssb", 0.2)

	in := faultinject.New(faultinject.Rule{Stage: "export/shard", Item: 0, Action: faultinject.Error})
	defer faultinject.Activate(in)()

	prob := streamProblem(t, "ssb", 0.2)
	dir := t.TempDir()
	_, err := GenerateStream(prob, Options{Seed: 3, Parallelism: 4},
		StreamConfig{Sink: &storage.DirSink{Dir: dir}, ShardRows: 500})
	if err == nil {
		t.Fatal("injected export fault did not fail the run")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injection provenance", err)
	}

	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			t.Errorf("torn temp file left behind: %s", path)
			return nil
		}
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if string(b) != want[name] {
			t.Errorf("committed file %s differs from the in-memory export", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportCSVDirFaultLeavesNoTornFile holds the in-memory export to the
// streamed export's contract: a fault in the shard pool surfaces as a typed
// *StageError carrying the injection, and the failed table leaves neither a
// final nor a temp file, while tables committed before it are complete.
func TestExportCSVDirFaultLeavesNoTornFile(t *testing.T) {
	prob := streamProblem(t, "ssb", 0.5)
	res, err := Generate(prob, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 exists only in lineorder: the dimensions fit one export shard.
	in := faultinject.New(faultinject.Rule{Stage: "export/shard", Item: 1, Action: faultinject.Error})
	defer faultinject.Activate(in)()

	dir := t.TempDir()
	err = ExportCSVDir(dir, res.DB, prob.Workload.Codecs)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "export/shard" {
		t.Fatalf("err = %v, want a *StageError at export/shard", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injection provenance", err)
	}
	for _, name := range []string{"lineorder.csv", "lineorder.csv.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived the failed export (stat err = %v)", name, err)
		}
	}
	for _, name := range []string{"customer.csv", "date.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s, exported before the fault, is missing or empty (err = %v)", name, err)
		}
	}
}

// residentColumns returns the columns a database holds in memory, by table,
// and their total cell count (Σ len(Col), as the benchmark's
// nonkey.retained_cells counts it).
func residentColumns(db *storage.DB) (map[string]map[string]bool, int64) {
	cols := make(map[string]map[string]bool)
	var cells int64
	for _, tbl := range db.Schema.Tables {
		for i := range tbl.Columns {
			c := db.Table(tbl.Name).Col(tbl.Columns[i].Name)
			if c == nil {
				continue
			}
			if cols[tbl.Name] == nil {
				cols[tbl.Name] = make(map[string]bool)
			}
			cols[tbl.Name][tbl.Columns[i].Name] = true
			cells += int64(len(c))
		}
	}
	return cols, cells
}

// TestStreamedRetentionGuard pins what out-of-core generation keeps resident:
// exactly the plan's windowed retention set (FK units, the FK columns nested
// joins probe, projection/group-by columns) and no predicate or payload
// column. A refactor that quietly keeps one more column shows up here as a
// column-set diff, and as a cell count creeping toward the in-memory run's.
// TPC-H SF 0.5 with every template (q19 included) measures 106 325 streamed
// vs 490 205 in-memory cells, 4.6× (no run stores a primary key); the
// benchmark's nonkey.retained_cells at SF 10 reads 2.13 M vs 9.80 M, also
// 4.6×.
func TestStreamedRetentionGuard(t *testing.T) {
	const sf = 0.5
	prob := streamProblem(t, "tpch", sf)
	want := prob.Plan.RetainedColumnsWindowed()
	streamed, err := GenerateStream(prob, Options{Seed: 3}, StreamConfig{Sink: &storage.CountSink{}})
	if err != nil {
		t.Fatal(err)
	}
	got, streamCells := residentColumns(streamed.DB)
	if !maps.EqualFunc(got, want, maps.Equal) {
		t.Errorf("streamed run holds columns %v, the plan retains %v", got, want)
	}

	mem, err := Generate(streamProblem(t, "tpch", sf), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, memCells := residentColumns(mem.DB)
	if 4*streamCells > memCells {
		t.Errorf("streamed run holds %d cells, in-memory %d: want at most a quarter", streamCells, memCells)
	}
	t.Logf("resident cells: streamed %d, in-memory %d (%.1f×)", streamCells, memCells, float64(memCells)/float64(streamCells))
}

// TestStreamRejectsNegativeWindowRows: the full-column streaming mode is
// gone, so a negative window is an out-of-range input refused before the
// sink sees a single call.
func TestStreamRejectsNegativeWindowRows(t *testing.T) {
	prob := streamProblem(t, "ssb", 0.1)
	sink := &openCountingSink{}
	_, err := GenerateStream(prob, Options{Seed: 3}, StreamConfig{Sink: sink, WindowRows: -1})
	if err == nil || !strings.Contains(err.Error(), "WindowRows") {
		t.Fatalf("err = %v, want a WindowRows range error", err)
	}
	if sink.opens != 0 {
		t.Fatalf("sink saw %d OpenTable calls before the rejection", sink.opens)
	}
}

// openCountingSink counts OpenTable calls and discards the bytes.
type openCountingSink struct {
	storage.CountSink
	opens int
}

func (s *openCountingSink) OpenTable(name string) (storage.TableWriter, error) {
	s.opens++
	return s.CountSink.OpenTable(name)
}

// hashSink hashes each committed table's stream, so a smoke run can compare
// against the in-memory export without materializing files.
type hashSink struct {
	sums map[string]uint64
}

func (s *hashSink) OpenTable(name string) (storage.TableWriter, error) {
	return &hashWriter{sink: s, name: name, h: fnv.New64a()}, nil
}

type hashWriter struct {
	sink *hashSink
	name string
	h    interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

func (w *hashWriter) Write(p []byte) (int, error) { return w.h.Write(p) }
func (w *hashWriter) Commit() error {
	if w.sink.sums == nil {
		w.sink.sums = make(map[string]uint64)
	}
	w.sink.sums[w.name] = w.h.Sum64()
	return nil
}
func (w *hashWriter) Abort() error { return nil }

// TestStreamingSmoke is the CI streaming job: a medium-SF TPC-H database in
// stream mode (run under -race with a low GOMEMLIMIT by the workflow),
// checked against the in-memory run by row count and per-table checksum.
func TestStreamingSmoke(t *testing.T) {
	const sf = 0.5

	prob := streamProblem(t, "tpch", sf)
	mem, err := Generate(prob, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantSums := make(map[string]uint64)
	var wantRows int64
	for _, tbl := range mem.DB.Schema.Tables {
		h := fnv.New64a()
		if err := storage.ExportCSV(h, mem.DB.Table(tbl.Name), prob.Workload.Codecs); err != nil {
			t.Fatal(err)
		}
		wantSums[tbl.Name] = h.Sum64()
		wantRows += int64(mem.DB.Table(tbl.Name).Rows())
	}

	sink := &hashSink{}
	sprob := streamProblem(t, "tpch", sf)
	res, err := GenerateStream(sprob, Options{Seed: 3}, StreamConfig{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Export.Rows != wantRows {
		t.Fatalf("streamed %d rows, in-memory has %d", res.Export.Rows, wantRows)
	}
	for name, want := range wantSums {
		if got := sink.sums[name]; got != want {
			t.Errorf("table %s: streamed checksum %016x != in-memory %016x", name, got, want)
		}
	}
}
