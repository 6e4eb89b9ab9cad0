package mirage

// Determinism regression tests for the parallel generation pipeline: the
// contract is that Options.Seed alone fixes the generated bytes — the same
// seed must produce table-by-table, column-by-column identical databases
// and identical instantiated parameters at any Options.Parallelism.

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"reflect"
	"runtime"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/workload"
)

// generateAt runs the full pipeline for one scenario at the given worker
// count, optionally truncated to the first limit templates.
func generateAt(t *testing.T, name string, sf float64, limit, parallelism int) (*Result, *Workload) {
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
	if limit > 0 && limit < len(w.Templates) {
		w.Templates = w.Templates[:limit]
	}
	prob, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(prob, Options{Seed: 3, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res, w
}

// assertIdentical compares two generated results cell by cell and their
// instantiated workloads parameter by parameter.
func assertIdentical(t *testing.T, r1, r2 *Result, w1, w2 *Workload, label string) {
	t.Helper()
	for _, tbl := range r1.DB.Schema.Tables {
		t1, t2 := r1.DB.Table(tbl.Name), r2.DB.Table(tbl.Name)
		for i := range tbl.Columns {
			col := tbl.Columns[i].Name
			c1, c2 := t1.Col(col), t2.Col(col)
			if len(c1) != len(c2) {
				t.Fatalf("%s: %s.%s: %d rows vs %d rows", label, tbl.Name, col, len(c1), len(c2))
			}
			for r := range c1 {
				if c1[r] != c2[r] {
					t.Fatalf("%s: %s.%s row %d: %d vs %d", label, tbl.Name, col, r, c1[r], c2[r])
				}
			}
		}
	}
	for qi, q1 := range w1.Templates {
		q2 := w2.Templates[qi]
		p1, p2 := q1.Params(), q2.Params()
		if len(p1) != len(p2) {
			t.Fatalf("%s: %s: %d params vs %d", label, q1.Name, len(p1), len(p2))
		}
		for i := range p1 {
			if p1[i].Value != p2[i].Value || !p1[i].Instantiated || !p2[i].Instantiated {
				t.Fatalf("%s: %s param %s: value %d vs %d (instantiated %v/%v)",
					label, q1.Name, p1[i].ID, p1[i].Value, p2[i].Value, p1[i].Instantiated, p2[i].Instantiated)
			}
			if len(p1[i].List) != len(p2[i].List) {
				t.Fatalf("%s: %s param %s: list lengths differ", label, q1.Name, p1[i].ID)
			}
			for j := range p1[i].List {
				if p1[i].List[j] != p2[i].List[j] {
					t.Fatalf("%s: %s param %s list[%d]: %d vs %d",
						label, q1.Name, p1[i].ID, j, p1[i].List[j], p2[i].List[j])
				}
			}
		}
	}
	if w1.FormatInstantiated() != w2.FormatInstantiated() {
		t.Fatalf("%s: instantiated workload renderings differ", label)
	}
}

func TestParallelDeterminismSSB(t *testing.T) {
	r1, w1 := generateAt(t, "ssb", 0.2, 0, 1)
	r8, w8 := generateAt(t, "ssb", 0.2, 0, 8)
	assertIdentical(t, r1, r8, w1, w8, "ssb p1-vs-p8")
}

// TestParallelDeterminismTPCDS: a keygen wave's spare workers run a stuck
// FK unit's later restart attempts ahead of the commit order. At TPC-DS SF
// 0.005, seed 3, parallelism 4 and 8 leave waves with spare workers, and
// four units there have attempts run ahead and committed as well as
// attempts thrown away, because an earlier attempt improved on the best
// error (parallelism 2 commits attempts run ahead in two or three units).
// The streamed CSV bytes must be the same at parallelism 1, 2, 4 and 8.
func TestParallelDeterminismTPCDS(t *testing.T) {
	var want map[string]uint64
	for _, parallelism := range []int{1, 2, 4, 8} {
		sink := &hashSink{}
		prob := streamProblem(t, "tpcds", 0.005)
		if _, err := GenerateStream(prob, Options{Seed: 3, Parallelism: parallelism}, StreamConfig{Sink: sink}); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if want == nil {
			want = sink.sums
			continue
		}
		if !maps.Equal(sink.sums, want) {
			t.Fatalf("parallelism %d exported %x, parallelism 1 %x", parallelism, sink.sums, want)
		}
	}
}

// TestParallelDeterminismBuild: BuildProblem traces templates on
// GOMAXPROCS workers, one annotator each, and must build the same forests —
// trees, annotations, dropped residuals, in template order — on one worker
// as on four.
func TestParallelDeterminismBuild(t *testing.T) {
	for _, name := range []string{"ssb", "tpch", "tpcds"} {
		var forests [2][]*rewrite.Forest
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			forests[i] = streamProblem(t, name, 0.05).Forests
			runtime.GOMAXPROCS(prev)
		}
		if !reflect.DeepEqual(forests[0], forests[1]) {
			t.Errorf("%s: forests built at GOMAXPROCS 1 and 4 differ", name)
		}
	}
}

func TestParallelDeterminismTPCHSubset(t *testing.T) {
	r1, w1 := generateAt(t, "tpch", 0.1, 8, 1)
	r8, w8 := generateAt(t, "tpch", 0.1, 8, 8)
	assertIdentical(t, r1, r8, w1, w8, "tpch p1-vs-p8")
}

// TestTPCHRunToRunDeterminism generates TPC-H with the full 22-template DSL
// twenty times at one seed: every run must instantiate the same workload
// text and the same lineitem.l_partkey column. q19's two set groups share
// one in-list parameter, and resolving them in map order used to flip the
// parameter in about one run of five (and l_partkey far more rarely).
func TestTPCHRunToRunDeterminism(t *testing.T) {
	var wantText string
	var wantHash uint64
	for run := 0; run < 20; run++ {
		res, w := generateAt(t, "tpch", 0.1, 0, 0)
		h := fnv.New64a()
		for _, v := range res.DB.Table("lineitem").Col("l_partkey") {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		text, hash := w.FormatInstantiated(), h.Sum64()
		if run == 0 {
			wantText, wantHash = text, hash
			continue
		}
		if text != wantText {
			t.Fatalf("run %d instantiated a different workload than run 0", run)
		}
		if hash != wantHash {
			t.Fatalf("run %d: l_partkey hash %016x, run 0 had %016x", run, hash, wantHash)
		}
	}
}

// TestCompleteParamsFallback covers the defensive-completion helper on a
// template whose literal never reaches the generators: a predicate the
// rewriter's boundary handling eliminates leaves its Param uninstantiated,
// and CompleteParams must fall it back to the original value — including
// when generation errors out upstream (Generate defers the completion), so
// callers that ignore the error never see a half-instantiated workload.
func TestCompleteParamsFallback(t *testing.T) {
	shared := &relalg.Param{ID: "p_kept", Orig: 7}
	orphan := &relalg.Param{ID: "p_eliminated", Orig: 42, OrigList: []int64{1, 2, 3}}
	q := &relalg.AQT{
		Name: "q_orphan",
		Root: &relalg.View{
			Kind: relalg.SelectView,
			Pred: &relalg.AndPred{Kids: []relalg.Predicate{
				&relalg.UnaryPred{Col: "t1", Op: relalg.OpLe, P: shared},
				&relalg.UnaryPred{Col: "t2", Op: relalg.OpGt, P: orphan},
			}},
			Inputs: []*relalg.View{{Kind: relalg.LeafView, Table: "t"}},
		},
	}
	shared.Set(5) // the generators instantiated this one

	n := relalg.CompleteParams([]*relalg.AQT{q})
	if n != 1 {
		t.Fatalf("CompleteParams fell back %d params, want 1", n)
	}
	if shared.Value != 5 {
		t.Fatalf("instantiated param overwritten: %d", shared.Value)
	}
	if !orphan.Instantiated || orphan.Value != 42 {
		t.Fatalf("orphan param not completed: instantiated=%v value=%d", orphan.Instantiated, orphan.Value)
	}
	if len(orphan.List) != 3 || orphan.List[0] != 1 {
		t.Fatalf("orphan list not copied from OrigList: %v", orphan.List)
	}
	orphan.List[0] = 99
	if orphan.OrigList[0] != 1 {
		t.Fatal("CompleteParams must copy OrigList, not alias it")
	}
	if relalg.CompleteParams([]*relalg.AQT{q}) != 0 {
		t.Fatal("second pass must be a no-op")
	}
}

// TestGenerateCompletesEveryParam checks the end-to-end guarantee on a real
// workload: after Generate, no parameter is left uninstantiated — whether
// the generators chose it or the fallback did.
func TestGenerateCompletesEveryParam(t *testing.T) {
	_, w := generateAt(t, "ssb", 0.1, 0, 2)
	for _, q := range w.Templates {
		for _, p := range q.Params() {
			if !p.Instantiated {
				t.Errorf("%s: param %s left uninstantiated after Generate", q.Name, p.ID)
			}
		}
	}
}
