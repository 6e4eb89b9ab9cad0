// Command miragebench reproduces the paper's evaluation: every table and
// figure of Section 8 has a named experiment that prints the corresponding
// rows/series (paper-vs-measured shapes are recorded in EXPERIMENTS.md).
//
// Usage:
//
//	miragebench -exp table1
//	miragebench -exp fig11 -workload tpch -sf 1
//	miragebench -exp fig13 -workload ssb -sfs 1,2,4
//	miragebench -exp all -sf 0.5
//	miragebench -exp fig13 -parallelism 8   # same results, less wall time
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/dbhammer/mirage/internal/experiments"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/obshttp"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1, fig11, fig12, fig13, fig15, fig16, all")
		name       = flag.String("workload", "tpch", "scenario for per-workload figures: ssb, tpch, tpcds")
		sf         = flag.Float64("sf", 1, "scale factor")
		seed       = flag.Int64("seed", 11, "seed")
		sfsFlag    = flag.String("sfs", "1,2,4", "comma-separated SF sweep for fig13")
		counts     = flag.String("counts", "", "query-count sweep for fig15/fig16 (default: workload-sized steps)")
		par        = flag.Int("parallelism", 0, "generation workers (0 = GOMAXPROCS, 1 = sequential; results are byte-identical at any value)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry the pipeline unwinds cleanly")
		metrics    = flag.String("metrics", "", "write the run's telemetry report to this file")
		metricsFmt = flag.String("metrics-format", "json", "telemetry report format: json or prom")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, /metrics, /progress and /events on this address (e.g. :6060)")
		traceOut   = flag.String("trace", "", "write a Perfetto/Chrome trace-event file of the experiment's span tree and events to this path")
	)
	flag.Parse()

	// Telemetry is opt-in, as in miragegen: the experiments run the same
	// pipeline, so a -metrics report carries the per-stage breakdown (spans,
	// histograms) behind every figure's headline numbers.
	var reg *obs.Registry
	if *metrics != "" || *pprofAddr != "" || *traceOut != "" {
		reg = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		srv, err := obshttp.Serve(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "miragebench: pprof:", err)
			os.Exit(1)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
			cancel()
		}()
		fmt.Fprintf(os.Stderr, "miragebench: pprof and /metrics on http://%s\n", srv.Addr())
	}
	if reg != nil {
		defer obs.StartSampler(reg, 0)()
	}

	// SIGINT cancels the experiment context; generation and validation
	// unwind cleanly with a wrapped context.Canceled. A second SIGINT kills
	// the process immediately.
	ctx, stop := signal.NotifyContext(obs.WithRegistry(context.Background(), reg), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Ctx: ctx, SF: *sf, Seed: *seed, Parallelism: *par}
	err := run(*exp, *name, cfg, *sfsFlag, *counts)
	if reg != nil && *metrics != "" {
		if werr := reg.WriteFile(*metrics, *metricsFmt); werr != nil {
			fmt.Fprintln(os.Stderr, "miragebench: metrics:", werr)
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(os.Stderr, "miragebench: telemetry report written to %s\n", *metrics)
		}
	}
	if reg != nil && *traceOut != "" {
		if werr := reg.WriteTraceFile(*traceOut); werr != nil {
			fmt.Fprintln(os.Stderr, "miragebench: trace:", werr)
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(os.Stderr, "miragebench: trace written to %s\n", *traceOut)
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "miragebench: interrupted:", err)
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "miragebench: timeout:", err)
		default:
			fmt.Fprintln(os.Stderr, "miragebench:", err)
		}
		os.Exit(1)
	}
}

func run(exp, name string, cfg experiments.Config, sfsFlag, counts string) error {
	switch exp {
	case "table1":
		r, err := experiments.RunTable1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig11":
		r, err := experiments.RunFig11(name, cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig12":
		r, err := experiments.RunFig12(name, cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig13":
		sfs, err := parseFloats(sfsFlag)
		if err != nil {
			return err
		}
		r, err := experiments.RunFig13(name, cfg, sfs)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "fig15", "fig16":
		cs, err := parseCounts(counts, name)
		if err != nil {
			return err
		}
		r, err := experiments.RunFig15(name, cfg, cs)
		if err != nil {
			return err
		}
		if exp == "fig15" {
			fmt.Println(r.Format())
		} else {
			fmt.Println(r.FormatFig16())
		}
	case "all":
		if err := run("table1", name, cfg, sfsFlag, counts); err != nil {
			return err
		}
		for _, w := range []string{"ssb", "tpch", "tpcds"} {
			if err := run("fig11", w, cfg, sfsFlag, counts); err != nil {
				return err
			}
			if err := run("fig12", w, cfg, sfsFlag, counts); err != nil {
				return err
			}
		}
		if err := run("fig13", name, cfg, sfsFlag, counts); err != nil {
			return err
		}
		if err := run("fig15", name, cfg, sfsFlag, counts); err != nil {
			return err
		}
		return run("fig16", name, cfg, sfsFlag, counts)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseCounts(s, name string) ([]int, error) {
	if s == "" {
		switch name {
		case "ssb":
			return []int{4, 8, 13}, nil
		case "tpcds":
			return []int{20, 40, 60, 80, 100}, nil
		default:
			return []int{6, 11, 16, 22}, nil
		}
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
