// Command miragegen runs the Mirage pipeline end to end for one built-in
// scenario: it synthesizes an "in-production" database, traces the workload,
// generates the query-aware synthetic database, validates every cardinality
// constraint, and optionally exports the result as CSV plus the instantiated
// workload text.
//
// Usage:
//
//	miragegen -workload tpch -sf 1 -out /tmp/tpch-synth
//	miragegen -workload ssb -sf 0.5 -seed 7
//	miragegen -workload tpch -parallelism 8   # same bytes as -parallelism 1
//	miragegen -workload tpch -sf 100 -stream -out /tmp/tpch-100   # out-of-core
//	miragegen -workload tpcds -sf 50 -stream -gzip -shard-rows 131072 -out /tmp/ds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"github.com/dbhammer/mirage"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/obshttp"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

func main() {
	var (
		name       = flag.String("workload", "tpch", "scenario: ssb, tpch, or tpcds")
		sf         = flag.Float64("sf", 1, "scale factor (1 ≈ 1/100 of the official SF=1)")
		seed       = flag.Int64("seed", 11, "random seed (deterministic output)")
		sample     = flag.Int("sample", 0, "ACC sample size (0 = default 40k)")
		par        = flag.Int("parallelism", 0, "generation workers (0 = GOMAXPROCS, 1 = sequential; output is byte-identical at any value)")
		out        = flag.String("out", "", "directory for CSV export and workload text (optional)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry the pipeline unwinds cleanly")
		metrics    = flag.String("metrics", "", "write the run's telemetry report to this file")
		metricsFmt = flag.String("metrics-format", "json", "telemetry report format: json or prom")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, /metrics, /progress (JSON snapshot) and /events (SSE tail) on this address (e.g. :6060)")
		traceOut   = flag.String("trace", "", "write a Perfetto/Chrome trace-event file (trace.json) of the run's span tree and events to this path")
		eventsOut  = flag.String("events", "", "tee the run's structured event journal to this file as JSONL")
		stream     = flag.Bool("stream", false, "out-of-core mode: stream CSVs to -out while generating, retaining only keygen's working set in memory (same bytes as the in-memory path)")
		shardRows  = flag.Int64("shard-rows", 0, "export shard size in rows for -stream (0 = default 64k; byte-neutral)")
		windowRows = flag.Int64("window-rows", 0, "keygen evaluation window in rows for -stream (0 = default 64Ki, positive = rows per window; byte-neutral)")
		spillDir   = flag.String("spill-dir", "", "directory for windowed row-set spill files (-stream only; default: a temp dir removed on exit)")
		gzip       = flag.Bool("gzip", false, "gzip the streamed CSVs (-stream only; writes .csv.gz)")
		noValidate = flag.Bool("no-validate", false, "skip workload validation after a -stream run (drops the validation columns from memory too)")
		resume     = flag.Bool("resume", false, "resume an interrupted -stream run from the manifest in -out: committed tables are verified (size + content hash) and skipped, the rest re-exported; refuses on a fingerprint mismatch")
		retries    = flag.Int("sink-retries", 0, "retry transient sink I/O errors up to N times per operation with exponential backoff (-stream only; 0 = fail fast)")
		retryBase  = flag.Duration("retry-base", 0, "first retry backoff delay (0 = default 5ms; doubles per attempt, deterministically jittered)")
	)
	flag.Parse()

	// The out-of-core flags steer only -stream runs. Refuse them without
	// -stream instead of silently running something else: an in-memory
	// "-resume" would regenerate from scratch over -out's committed tables.
	if !*stream {
		var streamOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "resume", "gzip", "shard-rows", "window-rows", "spill-dir", "no-validate", "sink-retries", "retry-base":
				streamOnly = append(streamOnly, "-"+f.Name)
			}
		})
		if len(streamOnly) > 0 {
			fmt.Fprintf(os.Stderr, "miragegen: flags valid only with -stream: %s\n", strings.Join(streamOnly, ", "))
			os.Exit(1)
		}
	}

	// Telemetry is opt-in: with none of these flags set the run's context
	// carries no registry and every instrumentation site in the pipeline
	// stays on its nil fast path.
	var reg *obs.Registry
	if *metrics != "" || *pprofAddr != "" || *traceOut != "" || *eventsOut != "" {
		reg = obs.NewRegistry()
	}
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "miragegen: events:", err)
			os.Exit(1)
		}
		eventsFile = f
		reg.Events().TeeTo(f)
	}
	// The server is owned here and shut down on exit — never abandoned to
	// the process lifetime.
	if *pprofAddr != "" {
		srv, err := obshttp.Serve(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "miragegen: pprof:", err)
			os.Exit(1)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
			cancel()
		}()
		fmt.Fprintf(os.Stderr, "miragegen: pprof, /metrics, /progress and /events on http://%s\n", srv.Addr())
	}
	if reg != nil {
		// Periodic heap + rate sampling keeps peak_heap_bytes and the
		// /progress ETA live between stage boundaries.
		defer obs.StartSampler(reg, 0)()
	}

	// SIGINT cancels the pipeline context: workers stop claiming items,
	// solves and window passes stop at their next poll, and the run unwinds
	// with a wrapped context.Canceled instead of dying mid-write. A second SIGINT kills the
	// process the usual way (signal.NotifyContext restores default handling
	// once the context is canceled).
	ctx, stop := signal.NotifyContext(obs.WithRegistry(context.Background(), reg), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := mirage.Options{Seed: *seed, SampleSize: *sample, Parallelism: *par}
	so := streamOpts{
		enabled: *stream, shardRows: *shardRows, gzip: *gzip, noValidate: *noValidate,
		windowRows: *windowRows, spillDir: *spillDir,
		resume: *resume, retries: *retries, retryBase: *retryBase,
	}
	err := run(ctx, *name, *sf, opts, *out, so)
	// The report and trace are written even after a failed run: a truncated
	// span trace with the failure counters is exactly what post-mortems want.
	if reg != nil && *metrics != "" {
		if werr := reg.WriteFile(*metrics, *metricsFmt); werr != nil {
			fmt.Fprintln(os.Stderr, "miragegen: metrics:", werr)
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(os.Stderr, "miragegen: telemetry report written to %s\n", *metrics)
		}
	}
	if reg != nil && *traceOut != "" {
		if werr := reg.WriteTraceFile(*traceOut); werr != nil {
			fmt.Fprintln(os.Stderr, "miragegen: trace:", werr)
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(os.Stderr, "miragegen: trace written to %s\n", *traceOut)
		}
	}
	if eventsFile != nil {
		if terr := reg.Events().TeeErr(); terr != nil {
			fmt.Fprintln(os.Stderr, "miragegen: events tee:", terr)
		}
		reg.Events().TeeTo(nil)
		if cerr := eventsFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "miragegen: interrupted:", err)
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "miragegen: timeout:", err)
		default:
			fmt.Fprintln(os.Stderr, "miragegen:", err)
		}
		os.Exit(1)
	}
}

// streamOpts bundles the out-of-core flags.
type streamOpts struct {
	enabled    bool
	shardRows  int64
	gzip       bool
	noValidate bool
	windowRows int64
	spillDir   string
	resume     bool
	retries    int
	retryBase  time.Duration
}

func run(ctx context.Context, name string, sf float64, opts mirage.Options, out string, so streamOpts) error {
	runStart := time.Now()
	spec, err := workload.ByName(name)
	if err != nil {
		return err
	}
	schema := spec.NewSchema(sf)
	fmt.Printf("scenario %s at SF=%.2f (%d tables)\n", name, sf, len(schema.Tables))

	original, err := workload.GenerateOriginal(schema, opts.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("original database: %d rows total\n", original.TotalRows())

	w, err := mirage.NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d templates\n", len(w.Templates))

	prob, err := mirage.BuildProblemCtx(ctx, original, w)
	if err != nil {
		return err
	}
	fmt.Printf("problem: %d selection tables, %d join constraints, %d fk units\n",
		len(prob.Plan.SelByTable), len(prob.Plan.Joins), len(prob.Plan.Units))

	var res *mirage.Result
	if so.enabled {
		// Out-of-core: CSVs stream to -out (a counting dry run without -out)
		// while keygen is still solving later dependency waves; only the
		// columns keygen — and, unless -no-validate, validation — reads stay
		// resident. With -out, every run keeps a manifest in the sink
		// directory, so any interrupted run can be picked up with -resume.
		var sink storage.Sink
		var manifest *storage.Manifest
		if out != "" {
			sink = &storage.DirSink{Dir: out, Gzip: so.gzip}
			fp := mirage.RunFingerprint(prob, opts)
			fp.Workload = name
			if so.resume {
				manifest, err = storage.LoadManifest(out)
				if err != nil {
					return fmt.Errorf("resume: %w", err)
				}
				if err := manifest.Check(fp); err != nil {
					return fmt.Errorf("resume: %w", err)
				}
				if err := manifest.VerifyCommitted(); err != nil {
					return fmt.Errorf("resume: %w", err)
				}
				fmt.Printf("resuming: %d tables verified committed, re-running the rest\n",
					len(manifest.CommittedTables()))
			} else {
				manifest = storage.NewManifest(out, fp)
				if err := manifest.Save(); err != nil {
					return err
				}
			}
			if so.retries > 0 {
				sink = &storage.RetrySink{
					Sink: sink, MaxAttempts: so.retries + 1,
					BaseDelay: so.retryBase, Seed: opts.Seed, Ctx: ctx,
				}
			}
		} else {
			if so.resume {
				return fmt.Errorf("-resume needs -out: the manifest lives in the sink directory")
			}
			sink = &storage.CountSink{}
		}
		sc := mirage.StreamConfig{
			Sink: sink, ShardRows: so.shardRows, RetainForValidate: !so.noValidate,
			WindowRows: so.windowRows, SpillDir: so.spillDir, Manifest: manifest,
		}
		res, err = mirage.GenerateStreamCtx(ctx, prob, opts, sc)
		if err != nil {
			return err
		}
		fmt.Printf("streamed %d tables: %d rows, %d shards, %.1f MB",
			res.Export.Tables, res.Export.Rows, res.Export.Shards,
			float64(res.Export.Bytes)/(1<<20))
		if res.Export.Skipped > 0 {
			fmt.Printf(" (+%d tables resumed from the manifest)", res.Export.Skipped)
		}
		if out == "" {
			fmt.Printf(" (dry run, no -out)")
		}
		fmt.Println()
	} else {
		res, err = mirage.GenerateCtx(ctx, prob, opts)
		if err != nil {
			return err
		}
	}
	fmt.Printf("generated %d rows in %v (nonkey GD %v | key CS %v CP %v PF %v)\n",
		res.DB.TotalRows(), res.Total.Round(1e6),
		res.NonKey.GenTime.Round(1e6), res.Key.CSTime.Round(1e6),
		res.Key.CPTime.Round(1e6), res.Key.PFTime.Round(1e6))
	if len(res.Degradations) > 0 {
		fmt.Printf("degradations (%d):\n", len(res.Degradations))
		for _, d := range res.Degradations {
			fmt.Printf("  keygen %s: %s x%d\n", d.Unit, d.Kind, d.Count)
		}
	}

	if so.enabled && so.noValidate {
		fmt.Println("validation skipped (-no-validate)")
	} else {
		reports, err := mirage.ValidateCtx(ctx, res)
		if err != nil {
			return err
		}
		fmt.Printf("\n%-12s %10s %8s\n", "query", "rel.err", "views")
		for _, r := range reports {
			fmt.Printf("%-12s %9.4f%% %8d\n", r.Query, 100*r.RelError, r.Views)
		}
		fmt.Printf("mean relative error: %.4f%%  max: %.4f%%\n",
			100*mirage.MeanError(reports), 100*mirage.MaxError(reports))
	}

	if out != "" {
		// A streamed run already wrote its CSVs through the sink.
		if !so.enabled {
			if err := mirage.ExportCSVDir(out, res.DB, w.Codecs); err != nil {
				return err
			}
		}
		wl := filepath.Join(out, "workload_instantiated.txt")
		if err := os.WriteFile(wl, []byte(w.FormatInstantiated()), 0o644); err != nil {
			return err
		}
		fmt.Printf("exported CSVs and instantiated workload to %s\n", out)
	}
	fmt.Println(summaryLine(res, time.Since(runStart), obs.From(ctx)))
	return nil
}

// summaryLine is the run's always-on closing line: rows, bytes (streamed
// runs), wall time, peak heap, and degradation count — printed even with
// telemetry disabled, so no run ends silently. The heap figure comes from
// the registry's sampled high-water mark when telemetry is on, and from a
// single exit-time ReadMemStats otherwise (a floor, not a true peak).
func summaryLine(res *mirage.Result, wall time.Duration, reg *obs.Registry) string {
	rows := int64(res.DB.TotalRows())
	bytes := "in-memory"
	if res.Streamed {
		rows = res.Export.Rows
		bytes = fmt.Sprintf("%.1f MB written", float64(res.Export.Bytes)/(1<<20))
	}
	heap := "peak heap"
	heapBytes := reg.Gauge("peak_heap_bytes").Value()
	if heapBytes == 0 {
		heap = "heap at exit"
		heapBytes = int64(obs.SampleHeap(nil))
	}
	return fmt.Sprintf("run summary: %d rows, %s, wall %v, %s %.1f MB, %d degradations",
		rows, bytes, wall.Round(time.Millisecond), heap, float64(heapBytes)/(1<<20), len(res.Degradations))
}
