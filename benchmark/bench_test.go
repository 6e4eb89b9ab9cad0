package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// tiny shrinks a workload to the smallest scale its scenario generates at
// (TPC-H SF 0.3 fails with "fresh-key demand exceeds supply").
func tiny(spec workloadSpec) workloadSpec {
	spec.SF = map[string]float64{"tpch": 0.5, "ssb": 0.3, "tpcds": 0.5}[spec.Scenario]
	return spec
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef, keep func(metricDef) bool) []string {
	var out []string
	for _, d := range defs {
		if keep(d) {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestManifest pins BENCHMARK.json to the program's own tables and to the
// limits the driver's contract puts on names, units and text.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Errorf("BENCHMARK.json is not what the program generates; run `go run ./benchmark` or fix spec.go\n%s", manifestJSON())
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the contract", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload through an untraced run (with its check
// against the other pipeline) and a traced run of two replays at tiny scale:
// every operation must succeed — trees equal, rows as the schema says, exact
// counts repeating — and each run must emit exactly the metrics listed.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		spec := tiny(spec)
		t.Run(spec.Name, func(t *testing.T) {
			cfg := runConfig{Spec: spec, Seed: 11, MinCycles: 1, MinReplays: 2, TmpRoot: t.TempDir()}
			r, err := runUntraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("untraced: %d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
			}
			want := names(endToEnd, func(d metricDef) bool {
				return d.Listed || d.Name == "failed_ops_pct" || !spec.Stream
			})
			if got := keys(r.Metrics); !slices.Equal(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for _, d := range endToEnd {
				if d.Listed && r.Metrics[d.Name] <= 0 {
					t.Errorf("listed metric %s = %v, must never be 0", d.Name, r.Metrics[d.Name])
				}
			}
			if spec.ZeroError && r.Metrics["max_rel_err_pct"] != 0 {
				t.Errorf("max_rel_err_pct = %v, pinned to 0", r.Metrics["max_rel_err_pct"])
			}

			tr, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Errorf("traced: %d of %d operations failed: %v", tr.Failed, tr.Attempted, tr.Failures)
			}
			if got, want := keys(tr.Metrics), names(perLayer, func(metricDef) bool { return true }); !slices.Equal(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			if n := len(tr.Samples["keygen.cp_rounds"]); n < 2 {
				t.Errorf("%d replays, need two to see the exact counts repeat", n)
			}
		})
	}
}
