// Package validate measures how faithfully a synthetic database reproduces
// an annotated workload: it executes each instantiated template and computes
// the paper's relative-error metric (Section 8),
//
//	relative error = Σᵢ | |Vᵢ| − |V̂ᵢ| |  /  Σᵢ |Vᵢ|
//
// over the constrained operator views of each query, where |Vᵢ| is the
// cardinality observed on the original database (the annotation) and |V̂ᵢ|
// the cardinality observed on the synthetic database. Unsupported queries
// score 100%.
package validate

import (
	"context"
	"time"

	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Report is the fidelity of one query.
type Report struct {
	Query string
	// RelError is the paper's metric in [0, 1]; 1 for unsupported queries.
	RelError float64
	// Views is the number of constrained operator views measured.
	Views int
	// SumTarget and SumAbsDiff are the metric's denominator and numerator.
	SumTarget, SumAbsDiff int64
	// Latency is the synthetic execution time (Fig. 12).
	Latency time.Duration
	// Unsupported marks queries the generator declined (error recorded).
	Unsupported bool
	Err         string
}

// Unsupported builds the 100%-error report for a query a generator cannot
// handle.
func Unsupported(query, reason string) Report {
	return Report{Query: query, RelError: 1, Unsupported: true, Err: reason}
}

// Query executes one annotated template (original plan, instantiated
// parameters) on the synthetic database and scores it. Latency is measured
// here around Execute — the engine itself reads no wall clock, so its
// telemetry-off path stays free.
func Query(eng *engine.Engine, q *relalg.AQT) Report {
	start := time.Now()
	res, err := eng.Execute(q, false)
	latency := time.Since(start)
	if err != nil {
		return Unsupported(q.Name, err.Error())
	}
	rep := Report{Query: q.Name, Latency: latency}
	q.Root.Walk(func(v *relalg.View) {
		if v.Card == relalg.CardUnknown {
			return
		}
		switch v.Kind {
		case relalg.SelectView, relalg.JoinView, relalg.ProjectView:
		default:
			return // leaves are trivially exact; aggregates are unconstrained
		}
		got := res.Stats[v].Card
		diff := v.Card - got
		if diff < 0 {
			diff = -diff
		}
		rep.Views++
		rep.SumTarget += v.Card
		rep.SumAbsDiff += diff
	})
	if rep.SumTarget > 0 {
		rep.RelError = float64(rep.SumAbsDiff) / float64(rep.SumTarget)
	} else if rep.SumAbsDiff > 0 {
		rep.RelError = 1
	}
	return rep
}

// Workload scores every template against one synthetic database,
// sequentially. It is WorkloadParallel with a single worker.
func Workload(db *storage.DB, templates []*relalg.AQT) ([]Report, error) {
	return WorkloadParallel(db, templates, 1)
}

// WorkloadParallel scores the templates on up to workers goroutines, each
// with its own read-only engine over the shared database. One engine per
// worker is mandatory, not just a convenience: the vectorized engine reuses
// per-instance scratch buffers across operators. Queries are
// independent — execution reads the database and the instantiated
// parameters but mutates neither — and each query's report lands in its
// template-order slot, so the report slice is identical at any worker
// count (up to Latency, which is a wall-clock measurement).
func WorkloadParallel(db *storage.DB, templates []*relalg.AQT, workers int) ([]Report, error) {
	return WorkloadParallelCtx(context.Background(), db, templates, workers)
}

// WorkloadParallelCtx is WorkloadParallel under a context: cancellation
// stops the pool from claiming further queries and returns the context's
// error (wrapped, with in-flight queries run to completion and their worker
// goroutines joined before returning — no goroutine outlives the call).
func WorkloadParallelCtx(ctx context.Context, db *storage.DB, templates []*relalg.AQT, workers int) ([]Report, error) {
	if workers > len(templates) {
		workers = len(templates)
	}
	if workers < 1 {
		workers = 1
	}
	reg := obs.From(ctx)
	engines := make([]*engine.Engine, workers)
	for w := range engines {
		eng, err := engine.New(db)
		if err != nil {
			return nil, err
		}
		eng.SetRegistry(reg)
		engines[w] = eng
	}
	reports := make([]Report, len(templates))
	queriesC := reg.Counter("validate_queries_total")
	latencyH := reg.Histogram("validate_query_ns")
	if err := parallel.ForEachWorkerCtx(ctx, "validate", workers, len(templates), func(w, i int) error {
		var sp *obs.Span
		if parent := obs.FromContext(ctx); parent != nil {
			sp = parent.Child("query:" + templates[i].Name)
		}
		reports[i] = Query(engines[w], templates[i])
		sp.End()
		queriesC.Inc()
		latencyH.Observe(int64(reports[i].Latency))
		return nil
	}); err != nil {
		return nil, err
	}
	return reports, nil
}

// Mean returns the average relative error of a report set.
func Mean(reports []Report) float64 {
	if len(reports) == 0 {
		return 0
	}
	var sum float64
	for _, r := range reports {
		sum += r.RelError
	}
	return sum / float64(len(reports))
}

// MaxError returns the largest relative error of a report set.
func MaxError(reports []Report) float64 {
	var m float64
	for _, r := range reports {
		if r.RelError > m {
			m = r.RelError
		}
	}
	return m
}
