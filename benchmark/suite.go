package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

type suiteConfig struct {
	Seed    int64
	Seconds float64
	Reps    int
	Out     string
	AA      bool
}

// summary is one end-to-end metric of one workload over a set of runs. Each
// sample is one run's value, itself the median over that run's cycles. A
// handful of samples supports no percentile beyond the median, so none is
// reported; min and max show the spread.
type summary struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	lo, hi := minMax(samples)
	return summary{Median: median(samples), Min: lo, Max: hi, N: len(samples), Samples: samples}
}

// spread is the min–max distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

type workloadRecord struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Scenario  string             `json:"scenario"`
	SF        float64            `json:"sf"`
	GenSeed   int64              `json:"gen_seed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Tree      tree               `json:"tree"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	// RSSReset says peak_rss_mb covers the generate phase only; false means
	// the kernel refused the reset and it is the whole process's peak.
	RSSReset bool `json:"rss_reset"`
	// StealPct is each run's share of host CPU time stolen by the
	// hypervisor, untraced runs first, then the traced one.
	StealPct []float64 `json:"steal_pct"`
}

// suiteRecord is one full set of runs with where and how it was made.
type suiteRecord struct {
	Provenance provenance       `json:"provenance"`
	Seed       int64            `json:"seed"`
	Reps       int              `json:"reps"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadRecord `json:"workloads"`
}

func (s *suiteRecord) workload(name string) *workloadRecord {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// childRun makes one run in a fresh process of this same binary, so heap
// state and peak RSS are that run's alone.
func childRun(name string, seed int64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(sinkTmp, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(sinkTmp, "detail-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-detail", f.Name())
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runSet runs every workload: cfg.Reps untraced runs, then one traced run.
func runSet(w io.Writer, cfg suiteConfig) (*suiteRecord, error) {
	rec := &suiteRecord{Provenance: readProvenance("."), Seed: cfg.Seed, Reps: cfg.Reps, Seconds: cfg.Seconds}
	for _, spec := range workloads {
		wr := workloadRecord{
			Name: spec.Name, Why: spec.Why, Scenario: spec.Scenario, SF: spec.SF,
			GenSeed: genSeed(cfg.Seed), EndToEnd: map[string]summary{},
		}
		add := func(r *runResult) {
			wr.StealPct = append(wr.StealPct, r.StealPct)
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Failures = append(wr.Failures, r.Failures...)
		}
		samples := map[string][]float64{}
		for i := 0; i < cfg.Reps; i++ {
			r, err := childRun(spec.Name, cfg.Seed, cfg.Seconds, false)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "%s run %d/%d: generate_s %.4g, %d/%d operations failed, %.1f %% CPU stolen\n", spec.Name, i+1, cfg.Reps, r.Metrics["generate_s"], r.Failed, r.Attempted, r.StealPct)
			if wr.Tree != nil {
				r.checkSameTree("run against the run before", r.Tree, wr.Tree)
			}
			add(r)
			for name, v := range r.Metrics {
				samples[name] = append(samples[name], v)
			}
			wr.Tree, wr.RSSReset = r.Tree, r.RSSReset
		}
		for name, s := range samples {
			wr.EndToEnd[name] = summarize(s)
		}
		r, err := childRun(spec.Name, cfg.Seed, cfg.Seconds, true)
		if err != nil {
			return nil, err
		}
		add(r)
		wr.PerLayer = r.Metrics
		// The traced run's layers_sum_s is held against this set's median.
		if g := wr.EndToEnd["generate_s"].Median; g > 0 {
			wr.PerLayer["replay.gap_pct"] = 100 * (wr.PerLayer["replay.layers_sum_s"] - g) / g
		}
		rec.Workloads = append(rec.Workloads, wr)
	}

	// Two workloads over the same problem must commit the same tree,
	// whichever pipeline each used.
	for i := range rec.Workloads {
		for j := i + 1; j < len(rec.Workloads); j++ {
			a, b := &rec.Workloads[i], &rec.Workloads[j]
			sa, sb := workloads[i], workloads[j] // rec.Workloads follows workloads
			if sa.Scenario != sb.Scenario || sa.SF != sb.SF || !slices.Equal(sa.Only, sb.Only) || !slices.Equal(sa.Drop, sb.Drop) {
				continue
			}
			r := &runResult{}
			r.checkSameTree(b.Name+" against "+a.Name, b.Tree, a.Tree)
			b.Attempted += r.Attempted
			b.Failed += r.Failed
			b.Failures = append(b.Failures, r.Failures...)
		}
	}
	return rec, nil
}

const readingRule = `Reading rule: with nothing else contending, a faster layer saves at most its
share of the blocking steps. In a streamed run the blocking chain is nonkey ->
keygen waves -> export of the table whose last wave finishes last (lineitem,
lineorder, store_sales), so the export time of the small tables is already
hidden behind keygen and will not move generate_s.`

func printSet(w io.Writer, rec *suiteRecord) {
	p := rec.Provenance
	fmt.Fprintf(w, "\ncommit %s (modified %v), %s, nproc %d, GOMAXPROCS %d, kernel %s, sink on %s, seed %d, %d runs of %gs per workload\n",
		p.Commit, p.Modified, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.Kernel, p.SinkFS, rec.Seed, rec.Reps, rec.Seconds)
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "\n== %s (%s SF %g here = official SF %g; generation seed %d; peak RSS reset: %v)\n", wr.Name, wr.Scenario, wr.SF, wr.SF/100, wr.GenSeed, wr.RSSReset)
		fmt.Fprintf(w, "%-28s %14s %14s %14s %3s  %s\n", "end to end", "median", "min", "max", "n", "unit")
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %3d  %s\n", d.Name, s.Median, s.Min, s.Max, s.N, d.Unit)
			}
		}
		fmt.Fprintf(w, "%-28s %14s  %s\n", "per layer (traced replay)", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-28s %14.6g  %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
		_, worst := minMax(wr.StealPct)
		fmt.Fprintf(w, "operations: %d attempted, %d failed; host CPU stolen during a run: at most %.1f %%\n", wr.Attempted, wr.Failed, worst)
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "FAILED:", f)
		}
	}
	fmt.Fprintf(w, "\n%s\n", readingRule)
}

func (s *suiteRecord) failed() (n int) {
	for _, wr := range s.Workloads {
		n += wr.Failed
	}
	return n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite is the one command: every workload, every metric, the
// correctness gate, the result record and BENCHMARK.json.
func runSuite(w io.Writer, cfg suiteConfig) error {
	if cfg.Reps < 3 {
		return fmt.Errorf("-reps %d: three runs are the least a median means anything for", cfg.Reps)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if cfg.Out == "" {
		cfg.Out = filepath.Join("benchmark", "results", fmt.Sprintf("seed%d.json", cfg.Seed))
	}
	a, err := runSet(w, cfg)
	if err != nil {
		return err
	}
	printSet(w, a)
	if err := writeJSON(cfg.Out, a); err != nil {
		return err
	}
	if err := os.WriteFile("BENCHMARK.json", manifestJSON(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s and BENCHMARK.json\n", cfg.Out)
	failed := a.failed()
	if cfg.AA {
		b, err := runSet(w, cfg)
		if err != nil {
			return err
		}
		failed += b.failed()
		fmt.Fprintln(w, "\nA/A: the same binary, two sets")
		if n := compareSets(w, a, b); n > 0 {
			return fmt.Errorf("A/A: %d metrics differ between two sets of the same code", n)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// compareFiles implements -compare old.json new.json.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files, old then new")
	}
	var sets [2]suiteRecord
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	compareSets(w, &sets[0], &sets[1])
	return nil
}

// compareSets prints one row per workload and end-to-end metric, every
// change as a share of the old median, and returns how many rows moved by
// more than their bound (plus exact per-layer counts that differ).
func compareSets(w io.Writer, old, new *suiteRecord) (moved int) {
	fmt.Fprintf(w, "old: commit %s seed %d, %d runs; new: commit %s seed %d, %d runs\n",
		old.Provenance.Commit, old.Seed, old.Reps, new.Provenance.Commit, new.Seed, new.Reps)
	fmt.Fprintf(w, "%-17s %-17s %12s %12s %22s %9s %9s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worse by (of old)", "old span", "new span", "bound", "verdict")
	for _, ow := range old.Workloads {
		nw := new.workload(ow.Name)
		if nw == nil {
			continue
		}
		for _, d := range endToEnd {
			o, ok1 := ow.EndToEnd[d.Name]
			n, ok2 := nw.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			worse := n.Median - o.Median
			if d.Better == higher {
				worse = -worse
			}
			change := fmt.Sprintf("%+.6g %s", worse, d.Unit)
			rel := 0.0
			if o.Median != 0 {
				rel = worse / o.Median
				change = fmt.Sprintf("%+.2f%% of %.5g", 100*rel, o.Median)
			}
			beyond := worse != 0 && (o.Median == 0 || math.Abs(rel) > d.Bound)
			if beyond {
				moved++
			}
			verdict := "unchanged"
			switch {
			case d.Bound > 0 && o.spread() > d.Bound:
				// The old set's own runs disagree by more than the bound:
				// nothing this small can be told apart from noise.
				verdict = "unresolved"
			case beyond && worse > 0:
				verdict = "regressed"
			case beyond:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-17s %-17s %12.6g %12.6g %22s %8.2f%% %8.2f%% %5.0f%%  %s\n",
				ow.Name, d.Name, o.Median, n.Median, change, 100*o.spread(), 100*n.spread(), 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if d.Exact && ow.PerLayer[d.Name] != nw.PerLayer[d.Name] {
				moved++
				fmt.Fprintf(w, "%-17s %-17s %12.6g %12.6g  exact count differs\n", ow.Name, d.Name, ow.PerLayer[d.Name], nw.PerLayer[d.Name])
			}
		}
	}
	return moved
}
