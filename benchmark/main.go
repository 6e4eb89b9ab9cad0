// Command benchmark is the repository's one benchmark: five named workloads
// through the whole generator, end-to-end metrics from untraced runs of the
// public API, per-layer metrics from a traced replay the harness composes
// from the layers' exported functions. See README.md.
//
//	go run ./benchmark                       every workload; writes results/ and BENCHMARK.json
//	go run ./benchmark -workload W -trace 0  one run, the driver's protocol
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -aa                   two sets of the same binary must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	var (
		wl      = flag.String("workload", "", "run one workload by name and print one result line (default: the whole suite)")
		seed    = flag.Int64("seed", 11, "workload seed, the only workload argument")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced replay, per-layer metrics")
		detail  = flag.String("detail", "", "also write the run's full result (raw samples, table hashes) to this file")
		reps    = flag.Int("reps", 5, "suite: untraced runs per workload (at least 3)")
		out     = flag.String("out", "", "suite: result file (default benchmark/results/seed<seed>.json)")
		compare = flag.Bool("compare", false, "compare two suite result files: -compare old.json new.json")
		aa      = flag.Bool("aa", false, "run the suite twice and fail unless the two sets agree within the bounds")
	)
	flag.Parse()
	// One load generator, no more threads than the host has cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *wl != "":
		err = runOne(os.Stdout, *wl, *seed, *seconds, *traced == 1, *detail)
	default:
		err = runSuite(os.Stdout, suiteConfig{Seed: *seed, Seconds: *seconds, Reps: *reps, Out: *out, AA: *aa})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's protocol: one workload, one seed, one process; every
// metric by name and unit, then one JSON object as the last line.
func runOne(w io.Writer, name string, seed int64, seconds float64, traced bool, detail string) error {
	spec, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := runConfig{Spec: spec, Seed: seed, Seconds: seconds, MinCycles: 3, MinReplays: 1, TmpRoot: sinkTmp}
	run, defs := runUntraced, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	steal0, total0 := cpuTicks()
	r, err := run(cfg)
	if err != nil {
		return err
	}
	r.StealPct = stolenSince(steal0, total0)
	if detail != "" {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, b, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s seed %d (generation seed %d), %d cycles or replays\n", r.Workload, r.Seed, r.GenSeed, len(r.Samples[defs[0].Name]))
	fmt.Fprintf(w, "host: %.1f %% of CPU time stolen by the hypervisor during the run, %d disturbed cycles measured again\n", r.StealPct, r.Disturbed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue // an in-memory-only metric on a streamed workload
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
		if traced || d.Listed {
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
