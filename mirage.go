// Package mirage is a from-scratch Go implementation of Mirage, the
// query-aware database generator of "Mirage: Generating Enormous Databases
// for Complex Workloads" (Wang et al., 2024).
//
// Given (a) the cardinality constraints of a schema — table row counts and
// per-column domain sizes — and (b) a workload of annotated query templates
// whose operators are labeled with the output sizes observed on an
// in-production database, Mirage synthesizes a database instance and
// instantiates every query parameter so that replaying the workload on the
// synthetic database reproduces all labeled cardinalities, with a provable
// zero error bound (up to an adjustable Hoeffding sampling bound for
// arithmetic predicates on very large tables).
//
// The pipeline (Fig. 4 of the paper):
//
//	original DB + templates
//	    │  trace    — execute templates, label every operator (AQT)
//	    │  rewrite  — push selections below joins; PCC → JDC conversion
//	    │  genplan  — flatten to selection / join constraints, schedule FKs
//	    │  nonkey   — decouple LCCs, bin-pack UCC CDFs, materialize columns,
//	    │             instantiate selection & arithmetic parameters
//	    │  keygen   — partition by join visibility, solve the CP once per
//	    │             FK column, populate it in one pass
//	    ▼
//	synthetic DB + instantiated workload  ──validate──▶ relative errors
//
// Generation is one pipeline under two retention policies: Generate keeps
// every column in memory (export afterwards with ExportCSVDir), while
// GenerateStream keeps only the key generator's working set and streams
// each table's CSV to a sink as soon as its last foreign key is populated.
// Both export the same bytes for the same seed.
//
// Basic use:
//
//	w, _ := mirage.NewWorkload(schema, codecs, dslText)
//	problem, _ := mirage.BuildProblem(originalDB, w)
//	result, _ := mirage.Generate(problem, mirage.Options{})
//	reports, _ := mirage.Validate(result)
package mirage

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/keygen"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/trace"
	"github.com/dbhammer/mirage/internal/validate"
)

// Options tunes generation. The zero value selects the defaults discussed
// in Section 8 of the paper, scaled 100x down for laptop-class runs.
type Options struct {
	// SampleSize caps the rows sampled to instantiate arithmetic
	// predicates (paper: 4M for δ=0.1% at α=99.9%).
	SampleSize int
	// Seed makes generation deterministic; same seed, same database —
	// regardless of Parallelism (see below).
	Seed int64
	// Parallelism is the number of workers the pipeline's hot paths run
	// on: independent tables (non-key generation), independent columns and
	// row-chunk fills within a table, FK units of one dependency wave, and
	// validation queries. 0 selects runtime.GOMAXPROCS(0); 1 reproduces
	// the sequential pipeline exactly. Because every random stream is
	// derived from Seed plus the (table, column) it serves — never from a
	// shared sequential source — the generated database and instantiated
	// parameters are byte-identical at any worker count.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.SampleSize == 0 {
		o.SampleSize = nonkey.DefaultSampleSize
	}
	o.Parallelism = parallel.Workers(o.Parallelism)
	return o
}

// Problem is a fully traced and rewritten generation problem.
type Problem struct {
	Workload *Workload
	// Forests holds each query's rewritten generation trees.
	Forests []*rewrite.Forest
	// Plan is the flattened constraint set consumed by the generators.
	Plan *genplan.Problem
}

// BuildProblem runs the workload parser over the original database: every
// template is annotated by execution, rewritten for generation (Section 3),
// re-annotated, and flattened into the generator IR. It is BuildProblemCtx
// with a background context.
func BuildProblem(original *storage.DB, w *Workload) (*Problem, error) {
	return BuildProblemCtx(context.Background(), original, w)
}

// BuildProblemCtx is BuildProblem under a context. Templates are traced and
// rewritten in parallel, on as many workers as validation uses
// (runtime.GOMAXPROCS), each with its own annotator; every forest lands in
// its template's slot, so the problem is the same at any worker count.
// Cancellation stops the pool from claiming further templates, and a failure
// or panic while tracing or rewriting one template is contained into a
// *StageError naming the lowest failing template index instead of crashing
// the process.
func BuildProblemCtx(ctx context.Context, original *storage.DB, w *Workload) (*Problem, error) {
	reg := obs.From(ctx)
	span := reg.StartSpan("build")
	defer span.End()
	events := reg.Events()
	events.Emit(obs.Event{Type: obs.EventStageStart, Stage: "build"})
	defer events.Emit(obs.Event{Type: obs.EventStageFinish, Stage: "build"})
	workers := min(parallel.Workers(0), len(w.Templates))
	anns := make([]*trace.Annotator, workers)
	for i := range anns {
		ann, err := trace.New(original)
		if err != nil {
			return nil, fmt.Errorf("mirage: %w", err)
		}
		ann.Engine().SetRegistry(reg)
		anns[i] = ann
	}
	rw := rewrite.New(w.Schema)
	forests := make([]*rewrite.Forest, len(w.Templates))
	annSpan := span.Child("annotate")
	annotated := reg.Counter("trace_templates_total")
	err := parallel.ForEachWorkerCtx(ctx, "build/template", workers, len(w.Templates), func(worker, qi int) error {
		q := w.Templates[qi]
		var tSpan *obs.Span
		if annSpan != nil {
			tSpan = annSpan.Child("template:" + q.Name)
		}
		defer tSpan.End()
		ann := anns[worker]
		if err := ann.AnnotateAQTCtx(ctx, q); err != nil {
			return fmt.Errorf("annotate %s: %w", q.Name, err)
		}
		f, err := rw.Rewrite(q)
		if err != nil {
			return err
		}
		if err := ann.AnnotateForestCtx(ctx, f); err != nil {
			return fmt.Errorf("annotate forest %s: %w", q.Name, err)
		}
		forests[qi] = f
		annotated.Inc()
		return nil
	})
	annSpan.End()
	if err != nil {
		return nil, fmt.Errorf("mirage: build problem: %w", err)
	}
	planSpan := span.Child("genplan")
	plan, err := genplan.Build(w.Schema, forests)
	planSpan.End()
	if err != nil {
		return nil, fmt.Errorf("mirage: %w", err)
	}
	return &Problem{Workload: w, Forests: forests, Plan: plan}, nil
}

// Result is a generated database plus the instantiated workload and stage
// statistics.
type Result struct {
	// DB is the synthetic database.
	DB *storage.DB
	// Problem holds the instantiated templates (parameters are shared, so
	// Problem.Workload.Templates now carry concrete values).
	Problem *Problem
	// NonKey and Key report the generators' stage timings (Figs. 15-16).
	NonKey nonkey.Stats
	Key    keygen.Stats
	// Degradations lists every graceful-degradation event key generation
	// took instead of failing: join constraints resized to achievable values
	// (Section 6) and local-search restarts. An empty list means the run
	// needed no fallback at all. It is Key.Degradations.
	Degradations []Degradation
	// Total is the end-to-end generation wall time.
	Total time.Duration
	// Streamed reports whether the run used out-of-core generation
	// (GenerateStream): DB then holds only the retained column subset, and
	// Export summarizes what reached the sink.
	Streamed bool
	// Export summarizes a streamed run's sink output (zero otherwise).
	Export ExportStats
	// parallelism records the worker count generation ran with, so
	// Validate replays the workload at the same width.
	parallelism int
	// dropped marks a streamed run without StreamConfig.RetainForValidate:
	// DB lacks columns the workload reads, so Validate refuses it.
	dropped bool
}

// Degradation is one entry of Result.Degradations: an FK unit, the
// fallback it took and how often.
type Degradation = keygen.Degradation

// StageError is the typed error the pipeline produces when a stage or
// worker fails — including recovered panics, which carry the goroutine
// stack. Retrieve it from any pipeline error with errors.As.
type StageError = fault.StageError

// Generate runs the non-key and key generators, producing the synthetic
// database and instantiating every template parameter. Tables, columns, FK
// dependency waves and row-chunk fills run on up to Options.Parallelism
// workers; the output is byte-identical at any worker count for a fixed
// Options.Seed. It is GenerateCtx with a background context.
func Generate(p *Problem, opts Options) (*Result, error) {
	return GenerateCtx(context.Background(), p, opts)
}

// GenerateCtx is Generate under a context. Cancellation and deadline expiry
// propagate through every layer — worker pools stop claiming items, the
// local search polls between repairs, window passes stop between windows —
// and the returned error wraps context.Canceled / context.DeadlineExceeded.
// A panic in any stage or worker is contained into a *StageError (never a
// process crash). Whatever the failure, all worker goroutines have exited by the
// time GenerateCtx returns, and every committed column is complete: a
// table's column is either fully materialized or untouched, never torn.
func GenerateCtx(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	return generate(ctx, p, opts, nil)
}

// generate is the one pipeline behind GenerateCtx and GenerateStreamCtx
// (Fig. 4: non-key generator → key generator → export). With a nil sc it is
// the in-memory run: retain every column, evaluate over whole columns, export
// nothing. A non-nil sc narrows retention to keygen's working set, evaluates
// join-constraint selections over regenerated row windows, and attaches the
// wave-triggered exporter.
func generate(ctx context.Context, p *Problem, opts Options, sc *StreamConfig) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	reg := obs.From(ctx)
	span := reg.StartSpan("generate")
	defer span.End()
	events := reg.Events()
	installTracker(reg, p)
	events.Emit(obs.Event{Type: obs.EventStageStart, Stage: "generate"})
	defer events.Emit(obs.Event{Type: obs.EventStageFinish, Stage: "generate"})
	db := storage.NewDB(p.Workload.Schema)
	res := &Result{DB: db, Problem: p, parallelism: opts.Parallelism, Streamed: sc != nil,
		dropped: sc != nil && !sc.RetainForValidate}

	// Defensive completion: any parameter an eliminated literal left
	// untouched falls back to its original value — also on error and
	// cancellation paths, so callers that ignore a generation error never
	// observe a partially instantiated workload.
	defer relalg.CompleteParams(p.Workload.Templates)

	// A sink failure must unwind generation, not just the exporter.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// stage brackets one pipeline stage: the boundary check, the span and
	// its events, panic containment, and a heap sample at the far edge.
	stage := func(name string, run func(ctx context.Context) error) error {
		full := "generate/" + name
		if err := stageBoundary(ctx, full); err != nil {
			return err
		}
		sp := span.Child(name)
		events.Emit(obs.Event{Type: obs.EventStageStart, Stage: full})
		err := fault.Guard(full, func() error { return run(obs.ContextWith(ctx, sp)) })
		sp.End()
		events.Emit(obs.Event{Type: obs.EventStageFinish, Stage: full})
		sampleHeap(reg)
		return err
	}

	nkCfg := nonkey.Config{SampleSize: opts.SampleSize, Seed: opts.Seed, Parallelism: opts.Parallelism}
	if sc != nil {
		nkCfg.Retain = p.Plan.RetainedColumnsWindowed()
		if sc.RetainForValidate {
			roots := make([]*relalg.View, len(p.Workload.Templates))
			for i, q := range p.Workload.Templates {
				roots[i] = q.Root
			}
			genplan.RetainViewColumns(p.Workload.Schema, nkCfg.Retain, true, roots...)
		}
	}
	order, err := p.Workload.Schema.TopologicalOrder()
	if err != nil {
		return nil, fmt.Errorf("mirage: %w", err)
	}
	var plans map[string]*nonkey.TablePlan
	err = stage("nonkey", func(ctx context.Context) error {
		var gerr error
		plans, res.NonKey, gerr = nonkey.GenerateTables(ctx, nkCfg, db, order, p.Plan.SelByTable, 0)
		return gerr
	})
	if err != nil {
		return nil, fmt.Errorf("mirage: %w", err)
	}

	kgCfg := keygen.Config{Seed: opts.Seed, Parallelism: opts.Parallelism}
	var exp *exporter
	if sc != nil {
		exp = startExporter(ctx, cancel, span, db, plans, p.Workload.Codecs, *sc, opts.Parallelism)
		ready := tableReadyWaves(p.Plan)
		exp.enqueue(ready[-1]) // tables with no FK units stream immediately
		kgCfg.WaveDone = func(wave int) error { exp.enqueue(ready[wave]); return nil }
		sources := make(map[string]engine.ChunkSource, len(db.Tables))
		for name, t := range db.Tables {
			sources[name] = nonkey.NewPlanSource(t, plans[name])
		}
		kgCfg.Window = &engine.WindowConfig{Rows: sc.WindowRows, Sources: sources}
	}
	err = stage("keygen", func(ctx context.Context) error {
		kStats, err := keygen.Populate(ctx, kgCfg, p.Plan, db)
		if err != nil {
			return err
		}
		res.Key = *kStats
		return nil
	})
	if exp != nil {
		// The exporter's failure is the root cause: it cancelled the
		// context keygen was running under.
		if eerr := exp.finish(); eerr != nil {
			return nil, fmt.Errorf("mirage: export: %w", eerr)
		}
		res.Export = exp.stats
	}
	if err != nil {
		return nil, fmt.Errorf("mirage: %w", err)
	}
	res.Degradations = res.Key.Degradations

	res.Total = time.Since(start)
	reg.Counter("generate_rows_total").Add(int64(db.TotalRows()))
	return res, nil
}

// sampleHeap records the pipeline's heap high-water mark at stage
// boundaries — only when telemetry is enabled, so disabled runs never pay
// the ReadMemStats stop-the-world.
func sampleHeap(reg *obs.Registry) {
	if reg != nil {
		obs.SampleHeap(reg)
	}
}

// installTracker installs a fresh progress tracker for this run over the
// schema's planned table shapes (no-op when telemetry is disabled). The
// tracker feeds the /progress endpoint; SetTracker retires any tracker a
// previous run under the same registry installed.
func installTracker(reg *obs.Registry, p *Problem) {
	if reg == nil {
		return
	}
	tables := make([]obs.TableInfo, 0, len(p.Workload.Schema.Tables))
	for _, t := range p.Workload.Schema.Tables {
		tables = append(tables, obs.TableInfo{Name: t.Name, Rows: t.Rows})
	}
	reg.SetTracker(obs.NewTracker(reg, tables))
}

// stageBoundary is the cancellation (and fault-injection) check between
// pipeline stages: injected Cancel rules fire here, modeling an operator
// interrupt landing exactly on a stage edge. Failures surface as a
// *StageError naming the boundary while still unwrapping to the context's
// own error.
func stageBoundary(ctx context.Context, stage string) error {
	if err := faultinject.Fire(stage, faultinject.AnyItem); err != nil {
		return fault.Wrap(stage, fault.NoItem, err)
	}
	return fault.Wrap(stage, fault.NoItem, ctx.Err())
}

// Validate replays the instantiated workload on the synthetic database and
// reports the paper's relative-error metric per query, scoring queries on
// the worker count the database was generated with. It is ValidateCtx with
// a background context.
func Validate(res *Result) ([]validate.Report, error) {
	return ValidateCtx(context.Background(), res)
}

// ValidateCtx is Validate under a context: cancellation stops the worker
// pool from claiming further queries and returns the context's error with
// all goroutines joined. A streamed run is validatable only when it set
// StreamConfig.RetainForValidate; any other is refused before a query runs.
func ValidateCtx(ctx context.Context, res *Result) ([]validate.Report, error) {
	if res.dropped {
		return nil, errors.New("mirage: validate: the streamed run kept only keygen's columns; set StreamConfig.RetainForValidate to validate it")
	}
	reg := obs.From(ctx)
	span := reg.StartSpan("validate")
	defer span.End()
	events := reg.Events()
	events.Emit(obs.Event{Type: obs.EventStageStart, Stage: "validate"})
	defer events.Emit(obs.Event{Type: obs.EventStageFinish, Stage: "validate"})
	return validate.WorkloadParallelCtx(obs.ContextWith(ctx, span), res.DB, res.Problem.Workload.Templates, parallel.Workers(res.parallelism))
}
