// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 8). Each experiment has a Run function returning a
// structured result plus a Format method printing the same rows/series the
// paper reports; cmd/miragebench and the repository's benchmarks both build
// on these.
//
// Scale note: the paper runs SF=200..1000 on a 2×Xeon server; this repo's
// workloads are scaled 100× down, so SF here corresponds to paper-SF/100 in
// absolute rows. All comparisons are shape-level (who wins, by what factor,
// where knees fall), which scaling preserves.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/dbhammer/mirage/internal/baseline"
	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/keygen"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/sqlparse"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/trace"
	"github.com/dbhammer/mirage/internal/validate"
	"github.com/dbhammer/mirage/internal/workload"
)

// Config selects the scenario scale and seeds.
type Config struct {
	// Ctx bounds the whole experiment run: cancellation or deadline expiry
	// propagates into generation and validation. Nil means Background.
	Ctx        context.Context
	SF         float64
	Seed       int64
	BatchSize  int64
	SampleSize int
	// Parallelism is the generation worker count (0 = GOMAXPROCS, 1 =
	// sequential). The generated database is byte-identical either way;
	// only the stage timings change.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.SF == 0 {
		c.SF = 1
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.BatchSize == 0 {
		c.BatchSize = keygen.DefaultBatchSize
	}
	if c.SampleSize == 0 {
		c.SampleSize = nonkey.DefaultSampleSize
	}
	return c
}

// scenario bundles everything needed to run one benchmark end to end.
type scenario struct {
	spec     *workload.Spec
	schema   *relalg.Schema
	original *storage.DB
	ann      *trace.Annotator
}

func load(name string, cfg Config) (*scenario, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	schema := spec.NewSchema(cfg.SF)
	original, err := workload.GenerateOriginal(schema, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ann, err := trace.New(original)
	if err != nil {
		return nil, err
	}
	return &scenario{spec: spec, schema: schema, original: original, ann: ann}, nil
}

// templates parses and annotates a fresh template set.
func (s *scenario) templates() ([]*relalg.AQT, error) {
	p, err := sqlparse.NewParser(s.schema, s.spec.Codecs)
	if err != nil {
		return nil, err
	}
	qs, err := p.ParseWorkload(s.spec.DSL)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err := s.ann.AnnotateAQT(q); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// MirageRun is one full Mirage generation with stage statistics.
type MirageRun struct {
	DB        *storage.DB
	Templates []*relalg.AQT
	Reports   []validate.Report
	NonKey    nonkey.Stats
	Key       keygen.Stats
	Total     time.Duration
	// PeakMemMB approximates the generator's working set.
	PeakMemMB float64
}

// runMirage executes the full pipeline over an optional template subset.
func (s *scenario) runMirage(cfg Config, limit int) (*MirageRun, error) {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	qs, err := s.templates()
	if err != nil {
		return nil, err
	}
	if limit > 0 && limit < len(qs) {
		qs = qs[:limit]
	}
	rw := rewrite.New(s.schema)
	var forests []*rewrite.Forest
	for _, q := range qs {
		f, err := rw.Rewrite(q)
		if err != nil {
			return nil, err
		}
		if err := s.ann.AnnotateForest(f); err != nil {
			return nil, err
		}
		forests = append(forests, f)
	}
	plan, err := genplan.Build(s.schema, forests)
	if err != nil {
		return nil, err
	}

	run := &MirageRun{Templates: qs}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	db := storage.NewDB(s.schema)
	nkCfg := nonkey.Config{SampleSize: cfg.SampleSize, Seed: cfg.Seed, Parallelism: cfg.Parallelism}
	order, err := s.schema.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	_, nkStats, err := nonkey.GenerateTables(cfg.Ctx, nkCfg, db, order, plan.SelByTable, cfg.BatchSize)
	if err != nil {
		return nil, err
	}
	run.NonKey = nkStats
	kgCfg := keygen.Config{BatchSize: cfg.BatchSize, Seed: cfg.Seed, Parallelism: cfg.Parallelism}
	kStats, err := keygen.Populate(cfg.Ctx, kgCfg, plan, db)
	if err != nil {
		return nil, err
	}
	run.Key = *kStats
	run.Total = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	run.PeakMemMB = float64(after.HeapAlloc) / (1 << 20)
	if run.PeakMemMB < float64(before.HeapAlloc)/(1<<20) {
		run.PeakMemMB = float64(before.HeapAlloc) / (1 << 20)
	}
	run.DB = db

	relalg.CompleteParams(qs)
	run.Reports, err = validate.WorkloadParallelCtx(cfg.Ctx, db, qs, parallel.Workers(cfg.Parallelism))
	return run, err
}

// ToolRun is one baseline or Mirage run normalized for comparison.
type ToolRun struct {
	Tool      string
	Reports   []validate.Report
	GenTime   time.Duration
	Supported int
	FailNote  string
}

// runTouchstone / runHydra execute the baselines on fresh template clones.
func (s *scenario) runTouchstone(cfg Config, limit int) (*ToolRun, error) {
	qs, err := s.templates()
	if err != nil {
		return nil, err
	}
	if limit > 0 && limit < len(qs) {
		qs = qs[:limit]
	}
	ts := &baseline.Touchstone{Schema: s.schema, Seed: cfg.Seed, SampleSize: 1000}
	start := time.Now()
	db, supports, err := ts.Generate(qs)
	run := &ToolRun{Tool: "touchstone", GenTime: time.Since(start)}
	if err != nil {
		// Touchstone's published failure mode: no feasible FK population
		// at workload scale. Every query scores 100%.
		run.FailNote = err.Error()
		for _, q := range qs {
			run.Reports = append(run.Reports, validate.Unsupported(q.Name, err.Error()))
		}
		return run, nil
	}
	return finishToolRun(run, db, qs, supports)
}

func (s *scenario) runHydra(cfg Config, limit int) (*ToolRun, error) {
	qs, err := s.templates()
	if err != nil {
		return nil, err
	}
	if limit > 0 && limit < len(qs) {
		qs = qs[:limit]
	}
	hy := &baseline.Hydra{Schema: s.schema, Seed: cfg.Seed}
	start := time.Now()
	db, supports, err := hy.Generate(qs)
	run := &ToolRun{Tool: "hydra", GenTime: time.Since(start)}
	if err != nil {
		run.FailNote = err.Error()
		for _, q := range qs {
			run.Reports = append(run.Reports, validate.Unsupported(q.Name, err.Error()))
		}
		return run, nil
	}
	return finishToolRun(run, db, qs, supports)
}

func finishToolRun(run *ToolRun, db *storage.DB, qs []*relalg.AQT, supports []baseline.Support) (*ToolRun, error) {
	eng, err := engine.New(db)
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		if !supports[i].OK {
			run.Reports = append(run.Reports, validate.Unsupported(q.Name, supports[i].Reason))
			continue
		}
		run.Supported++
		run.Reports = append(run.Reports, validate.Query(eng, q))
	}
	return run, nil
}

// fmtDur prints a duration in milliseconds with stable width.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%8.1fms", float64(d.Microseconds())/1000)
}

func pct(x float64) string { return fmt.Sprintf("%6.2f%%", 100*x) }

func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}
