// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 8). Each experiment has a Run function returning a
// structured result plus a Format method printing the same rows/series the
// paper reports; cmd/miragebench builds on these. Mirage itself runs through
// the root package's pipeline (BuildProblemCtx, GenerateCtx, ValidateCtx),
// the same calls miragegen makes.
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

	"github.com/dbhammer/mirage"
	"github.com/dbhammer/mirage/internal/baseline"
	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/keygen"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/trace"
	"github.com/dbhammer/mirage/internal/validate"
	"github.com/dbhammer/mirage/internal/workload"
)

// Config selects the scenario scale and seeds.
type Config struct {
	// Ctx bounds the whole experiment run: cancellation or deadline expiry
	// propagates into generation and validation. Nil means Background.
	Ctx  context.Context
	SF   float64
	Seed int64
	// BatchSize and SampleSize are mirage.Options' fields of the same name
	// (0 = the pipeline's defaults).
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
	return c
}

// scenario bundles everything needed to run one experiment end to end.
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

// templates parses and annotates a fresh template set for the baselines.
func (s *scenario) templates() ([]*relalg.AQT, error) {
	w, err := mirage.NewWorkload(s.schema, s.spec.Codecs, s.spec.DSL)
	if err != nil {
		return nil, err
	}
	for _, q := range w.Templates {
		if err := s.ann.AnnotateAQT(q); err != nil {
			return nil, err
		}
	}
	return w.Templates, nil
}

// MirageRun is one full Mirage generation with stage statistics.
type MirageRun struct {
	DB *storage.DB
	// Templates are the instantiated templates the run validated.
	Templates []*relalg.AQT
	Reports   []validate.Report
	NonKey    nonkey.Stats
	Key       keygen.Stats
	Total     time.Duration
	// PeakMemMB approximates the generator's working set.
	PeakMemMB float64
}

// runMirage runs the product pipeline — mirage.BuildProblemCtx, GenerateCtx
// and ValidateCtx, the calls miragegen makes — over the workload's first
// limit templates (0 = all).
func (s *scenario) runMirage(cfg Config, limit int) (*MirageRun, error) {
	w, err := mirage.NewWorkload(s.schema, s.spec.Codecs, s.spec.DSL)
	if err != nil {
		return nil, err
	}
	if limit > 0 && limit < len(w.Templates) {
		w.Templates = w.Templates[:limit]
	}
	prob, err := mirage.BuildProblemCtx(cfg.Ctx, s.original, w)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := mirage.GenerateCtx(cfg.Ctx, prob, mirage.Options{
		Seed:        cfg.Seed,
		BatchSize:   cfg.BatchSize,
		SampleSize:  cfg.SampleSize,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	run := &MirageRun{
		DB:        res.DB,
		Templates: res.Problem.Workload.Templates,
		NonKey:    res.NonKey,
		Key:       res.Key,
		Total:     res.Total,
		PeakMemMB: float64(max(before.HeapAlloc, after.HeapAlloc)) / (1 << 20),
	}
	run.Reports, err = mirage.ValidateCtx(cfg.Ctx, res)
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
