package mirage

// Differential tests of windowed engine evaluation: a streamed run with any
// window size must export the same bytes, report the same keygen
// degradation ledger, and validate to the same statistics as the in-memory
// pipeline's full-column evaluation. Plus
// the regeneration-determinism fuzz (every [lo,hi) chunk re-read equals the
// first read) and the mid-window fault contract (typed StageError carrying
// the window index).

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
)

// streamArm builds one streamed differential arm: export into the arm's
// directory with the given parallelism and window configuration, returning
// the keygen degradation ledger as the cross-checked auxiliary state.
func streamArm(t *testing.T, workload string, sf float64, par int, sc StreamConfig) testutil.DiffArm {
	name := fmt.Sprintf("windowed=%d par=%d", sc.WindowRows, par)
	return testutil.DiffArm{Name: name, Run: func(dir string) (any, error) {
		prob := streamProblem(t, workload, sf)
		sc.Sink = &storage.DirSink{Dir: dir}
		res, err := GenerateStream(prob, Options{Seed: 3, Parallelism: par}, sc)
		if err != nil {
			return nil, err
		}
		return res.Degradations, nil
	}}
}

// TestWindowedMatchesFullColumnGrid is the PR's correctness bar: for SSB
// and TPC-H, windowed evaluation must produce byte-identical exports and an
// identical degradation ledger at every window size — the 1-row
// pathological window, sizes that don't divide any table, and the clamp
// edge where the window exceeds every table — and at parallelism 1, 4 and 8.
// The golden arm is the classic in-memory pipeline.
func TestWindowedMatchesFullColumnGrid(t *testing.T) {
	cases := []struct {
		workload string
		sf       float64
	}{
		{"ssb", 0.2},
		{"tpch", 0.1},
	}
	for _, tc := range cases {
		testutil.RunDifferential(t, memArm(t, tc.workload, tc.sf, 0),
			streamArm(t, tc.workload, tc.sf, 1, StreamConfig{}), // windowed default
			streamArm(t, tc.workload, tc.sf, 4, StreamConfig{}),
			streamArm(t, tc.workload, tc.sf, 8, StreamConfig{}),
			streamArm(t, tc.workload, tc.sf, 4, StreamConfig{WindowRows: 1}),       // pathological
			streamArm(t, tc.workload, tc.sf, 4, StreamConfig{WindowRows: 977}),     // divides nothing
			streamArm(t, tc.workload, tc.sf, 4, StreamConfig{WindowRows: 1 << 30}), // clamp edge
		)
	}
}

// memArm is the in-memory differential arm: generate at par workers, export
// every table.
func memArm(t *testing.T, workload string, sf float64, par int) testutil.DiffArm {
	return testutil.DiffArm{Name: fmt.Sprintf("in-memory par=%d", par), Run: func(dir string) (any, error) {
		prob := streamProblem(t, workload, sf)
		res, err := Generate(prob, Options{Seed: 3, Parallelism: par})
		if err != nil {
			return nil, err
		}
		if err := ExportCSVDir(dir, res.DB, prob.Workload.Codecs); err != nil {
			return nil, err
		}
		return res.Degradations, nil
	}}
}

// TestIntraUnitParallelDeterminism holds the CS stage run inside one FK unit
// on several goroutines to the bytes of the one-goroutine run. SSB's dependency
// waves hold one unit each, so at parallelism 4 every unit collects its row
// sets, folds its status masks and partitions them on four goroutines: in
// memory over lineorder's two default windows, and streamed over 4Ki-row
// windows. Both must export what the in-memory run at parallelism 1 does.
func TestIntraUnitParallelDeterminism(t *testing.T) {
	const sf = 1.5 // lineorder's 90 000 rows span two default windows
	small := StreamConfig{WindowRows: 4096}
	testutil.RunDifferential(t, memArm(t, "ssb", sf, 1),
		memArm(t, "ssb", sf, 4),
		streamArm(t, "ssb", sf, 1, small),
		streamArm(t, "ssb", sf, 4, small),
	)
}

// TestWindowedValidationMatches replays the workload on a windowed streamed
// database and on the classic in-memory one: every validation report —
// relative error, measured views, exact numerator/denominator — must be
// identical (latency, the one wall-clock field, is zeroed).
func TestWindowedValidationMatches(t *testing.T) {
	prob := streamProblem(t, "ssb", 0.2)
	mem, err := Generate(prob, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Validate(mem)
	if err != nil {
		t.Fatal(err)
	}

	sprob := streamProblem(t, "ssb", 0.2)
	res, err := GenerateStream(sprob, Options{Seed: 3, Parallelism: 4},
		StreamConfig{Sink: &storage.CountSink{}, WindowRows: 512, RetainForValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Validate(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Latency, w.Latency = 0, 0
		if g != w {
			t.Errorf("query %s: windowed report %+v, in-memory %+v", w.Query, g, w)
		}
	}
}

// TestFillChunkDeterminismFuzz drives random window boundaries through the
// chunk-regeneration path windowed evaluation and the streaming exporter
// share: for every non-FK column, every random [lo,hi) re-read must equal
// the first full read. Foreign-key columns are excluded — they are keygen's
// output, not regenerable from the non-key layouts.
func TestFillChunkDeterminismFuzz(t *testing.T) {
	prob := streamProblem(t, "tpch", 0.1)
	opts := Options{Seed: 3}.withDefaults()
	db := storage.NewDB(prob.Workload.Schema)
	order, err := prob.Workload.Schema.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	nkCfg := nonkey.Config{
		SampleSize: opts.SampleSize, Seed: opts.Seed,
		Parallelism: opts.Parallelism, Retain: prob.Plan.RetainedColumnsWindowed(),
	}
	plans, _, err := nonkey.GenerateTables(context.Background(), nkCfg, db, order, prob.Plan.SelByTable, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range prob.Workload.Schema.Tables {
		src := nonkey.NewPlanSource(db.Table(tbl.Name), plans[tbl.Name])
		n := src.NumRows()
		if n == 0 {
			continue
		}
		for _, col := range tbl.Columns {
			if col.Kind == relalg.ForeignKey {
				continue
			}
			first := make([]int64, n)
			if err := src.Fill(col.Name, first, 0, n); err != nil {
				t.Fatalf("%s.%s: full read: %v", tbl.Name, col.Name, err)
			}
			for _, seed := range []int64{1, 7, 42} {
				rng := rand.New(rand.NewSource(seed))
				chunk := make([]int64, n)
				for i := 0; i < 24; i++ {
					lo := rng.Int63n(n)
					hi := lo + 1 + rng.Int63n(n-lo)
					c := chunk[:hi-lo]
					for j := range c {
						c[j] = -1 << 62 // poison: a skipped write must not pass
					}
					if err := src.Fill(col.Name, c, lo, hi); err != nil {
						t.Fatalf("%s.%s [%d,%d): %v", tbl.Name, col.Name, lo, hi, err)
					}
					for j, v := range c {
						if v != first[lo+int64(j)] {
							t.Fatalf("%s.%s [%d,%d): row %d regenerated as %d, first read %d",
								tbl.Name, col.Name, lo, hi, lo+int64(j), v, first[lo+int64(j)])
						}
					}
				}
			}
		}
	}
}

// TestWindowedFaultTypedError injects a panic and an error into the
// windowed CS stage during a streamed run and asserts the contract: the run
// fails with a typed StageError carrying the engine/window stage and the
// window index, and the failure has injection provenance. Window 2 is the
// historical case; window 1 also lands in table passes that feed several
// chains at once (the joins of an SSB unit select on the same dimension
// table). The third case faults a reduction instead of a pass: without the
// Q1 flight no template selects on lineorder, so the fact table is never
// scanned by a pass and window 100 — past every dimension's last window —
// first occurs in wave 1, while a join-shaped request's answer is being
// reduced from lineorder's rows, a hundred windows of survivors already set.
func TestWindowedFaultTypedError(t *testing.T) {
	for _, action := range []faultinject.Action{faultinject.Panic, faultinject.Error} {
		for _, item := range []int{2, 1, 100} {
			in := faultinject.New(faultinject.Rule{Stage: engine.WindowStage, Item: item, Action: action})
			deactivate := faultinject.Activate(in)

			prob := streamProblem(t, "ssb", 0.2)
			if item == 100 {
				prob = ssbWithoutQ1(t, 0.2)
			}
			_, err := GenerateStream(prob, Options{Seed: 3, Parallelism: 4}, StreamConfig{
				Sink: &storage.CountSink{}, WindowRows: 64,
			})
			deactivate()
			if err == nil {
				t.Fatalf("action %v window %d: injected window fault did not fail the run", action, item)
			}
			var se *fault.StageError
			if !errors.As(err, &se) || se.Stage != engine.WindowStage || se.Item != item {
				t.Fatalf("action %v: err = %v, want StageError{%s, %d}", action, err, engine.WindowStage, item)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("action %v window %d: err = %v, want injection provenance", action, item, err)
			}
		}
	}
}

// ssbWithoutQ1 is the SSB problem minus its first query flight, the only
// templates with a selection on the fact table.
func ssbWithoutQ1(t *testing.T, sf float64) *Problem {
	t.Helper()
	prob := streamProblemWithout(context.Background(), t, "ssb", sf, "ssb_q1_")
	for _, q := range prob.Workload.Templates {
		q.Root.Walk(func(v *relalg.View) {
			if leaf, selects, ok := relalg.SelectChain(v); ok && leaf.Table == "lineorder" && len(selects) > 0 {
				t.Fatalf("%s still selects on lineorder", q.Name)
			}
		})
	}
	return prob
}

// TestWindowedStreamingSmoke is the CI windowed race job: a default
// (windowed) streamed TPC-H run under GOMEMLIMIT with a window size small
// enough to exercise many windows per table, checked against the in-memory
// pipeline by per-table checksum.
func TestWindowedStreamingSmoke(t *testing.T) {
	const sf = 0.3
	prob := streamProblem(t, "tpch", sf)
	mem, err := Generate(prob, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantSums := make(map[string]uint64)
	for _, tbl := range mem.DB.Schema.Tables {
		h := fnv.New64a()
		if err := storage.ExportCSV(h, mem.DB.Table(tbl.Name), prob.Workload.Codecs); err != nil {
			t.Fatal(err)
		}
		wantSums[tbl.Name] = h.Sum64()
	}

	sink := &hashSink{}
	sprob := streamProblem(t, "tpch", sf)
	if _, err := GenerateStream(sprob, Options{Seed: 3, Parallelism: 4},
		StreamConfig{Sink: sink, WindowRows: 256}); err != nil {
		t.Fatal(err)
	}
	for name, want := range wantSums {
		if got := sink.sums[name]; got != want {
			t.Errorf("table %s: windowed checksum %016x != in-memory %016x", name, got, want)
		}
	}
}
