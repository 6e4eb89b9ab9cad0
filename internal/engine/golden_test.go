package engine

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden stat files from the current engine")

// goldenSF keeps the golden databases small enough for -race CI runs while
// still exercising every operator of the SSB and TPC-H templates.
const goldenSF = 0.25

// viewStat is one view's observed execution in golden form.
type viewStat struct {
	View string `json:"view"`
	Card int64  `json:"card"`
	JCC  int64  `json:"jcc"`
	JDC  int64  `json:"jdc"`
}

type queryStats struct {
	Query string     `json:"query"`
	Views []viewStat `json:"views"`
}

// executeGolden runs every template of the scenario with original parameters
// — through Count when count is set, else through Execute — and flattens the
// per-view stats in deterministic walk order.
func executeGolden(t *testing.T, name string, count bool) []queryStats {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, db, templates, err := workload.Materialize(spec, goldenSF, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	var out []queryStats
	for _, q := range templates {
		run := eng.Execute
		if count {
			run = func(q *relalg.AQT, orig bool) (*Result, error) { return eng.Count(context.Background(), q, orig, nil) }
		}
		res, err := run(q, true)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, q.Name, err)
		}
		qs := queryStats{Query: q.Name}
		q.Root.Walk(func(v *relalg.View) {
			st, ok := res.Stats[v]
			if !ok {
				t.Fatalf("%s/%s: view %s not executed", name, q.Name, v)
			}
			qs.Views = append(qs.Views, viewStat{View: v.String(), Card: st.Card, JCC: st.JCC, JDC: st.JDC})
		})
		out = append(out, qs)
	}
	return out
}

// TestGoldenStatsEquivalence asserts the engine reproduces, bit for bit, the
// per-view Stats (Card/JCC/JDC) recorded from the pre-vectorization
// row-at-a-time executor on the SSB and TPC-H workloads, and so does the
// counting path. Regenerate with `go test ./internal/engine -run Golden
// -update` only when a semantic change is intended.
func TestGoldenStatsEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count bool
	}{{"ssb", false}, {"tpch", false}, {"ssb", true}, {"tpch", true}} {
		name := tc.name
		sub := name
		if tc.count {
			sub += "-count"
		}
		t.Run(sub, func(t *testing.T) {
			got := executeGolden(t, name, tc.count)
			path := filepath.Join("testdata", fmt.Sprintf("golden_stats_%s.json", name))
			if *updateGolden {
				if tc.count {
					return
				}
				blob, err := json.MarshalIndent(got, "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to record): %v", err)
			}
			var want []queryStats
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d queries, golden has %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i].Query != want[i].Query {
					t.Fatalf("query %d = %s, golden %s", i, got[i].Query, want[i].Query)
				}
				if len(got[i].Views) != len(want[i].Views) {
					t.Fatalf("%s: %d views, golden has %d", got[i].Query, len(got[i].Views), len(want[i].Views))
				}
				for j, w := range want[i].Views {
					g := got[i].Views[j]
					if g != w {
						t.Errorf("%s view %d:\n  got  %+v\n  want %+v", got[i].Query, j, g, w)
					}
				}
			}
		})
	}
}

// TestGoldenAllJoinTypes locks the paper-example stats for every join type,
// including the null padding of the outer variants, to the values the
// pre-vectorization engine produced (cross-checked against Table 2 by
// TestAllJoinTypesAgainstTable2).
func TestGoldenAllJoinTypes(t *testing.T) {
	db := paperDB(t)
	e, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	want := map[relalg.JoinType]Stats{
		relalg.EquiJoin:       {Card: 5, JCC: 5, JDC: 2},
		relalg.LeftOuterJoin:  {Card: 5, JCC: 5, JDC: 2},
		relalg.RightOuterJoin: {Card: 6, JCC: 5, JDC: 2},
		relalg.FullOuterJoin:  {Card: 6, JCC: 5, JDC: 2},
		relalg.LeftSemiJoin:   {Card: 2, JCC: 5, JDC: 2},
		relalg.RightSemiJoin:  {Card: 5, JCC: 5, JDC: 2},
		relalg.LeftAntiJoin:   {Card: 0, JCC: 5, JDC: 2},
		relalg.RightAntiJoin:  {Card: 1, JCC: 5, JDC: 2},
	}
	for jt, w := range want {
		// σ_{s1<3}(S) ⋈ σ_{t1>2}(T): left {pk 1,2}, right 6 rows, fks {1,2,2,3,1,2}.
		l := sel(leaf("s"), unary("s1", relalg.OpLt, pv("p1", 3)))
		r := sel(leaf("t"), unary("t1", relalg.OpGt, pv("p2", 2)))
		j := join(jt, "s", l, r, "t", "t_fk")
		got := mustExec(t, e, j).Stats[j]
		if got != w {
			t.Errorf("%v: stats %+v, want %+v", jt, got, w)
		}
	}
	// Outer-join null padding feeds downstream operators: projecting the FK
	// column over a full outer join must skip padded T slots.
	l := sel(leaf("s"), unary("s1", relalg.OpGe, pv("p", 4)))
	r := sel(leaf("t"), unary("t1", relalg.OpLe, pv("p", 2)))
	j := join(relalg.FullOuterJoin, "s", l, r, "t", "t_fk")
	p := proj(j, "t", "t_fk")
	if got := mustExec(t, e, p).Stats[p].Card; got != 1 {
		t.Errorf("projection over padded full outer = %d, want 1", got)
	}
}
