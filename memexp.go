package mirage

// Memory comparison between the two generation modes: how much heap the
// classic in-memory pipeline needs versus out-of-core streaming at the same
// scale factor, and what export throughput each achieves. cmd/miragebench
// exposes it as -exp mem, and the streaming benchmarks record its numbers
// into BENCH_engine.json.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

// MemoryArm is one side of the comparison.
type MemoryArm struct {
	// PeakHeapMB is the heap high-water mark over generation + validation +
	// export, sampled by a background watcher.
	PeakHeapMB float64
	Total      time.Duration
	// MBPerSec is export throughput: CSV bytes over the wall time of the
	// phase that produced them (generation and export overlap in the
	// streamed arm, so its denominator is the whole run).
	MBPerSec float64
}

// MemoryComparison compares the in-memory pipeline (materialize everything,
// validate, then export) against out-of-core streaming (retain only
// keygen's working set, stream shards as waves finish) at one scale factor.
// Both modes produce byte-identical CSVs; the comparison measures what that
// costs.
//
// Each arm follows its mode's real lifetime, matching what miragegen does:
// the in-memory arm keeps the traced original database resident through
// generation, validation and export, while the streamed arm releases it
// after planning — out-of-core generation needs only the constraint plan,
// never the original rows — and runs the large-SF recipe (no validation
// columns retained).
type MemoryComparison struct {
	Workload string
	SF       float64
	Rows     int64
	Bytes    int64
	InMem    MemoryArm
	Stream   MemoryArm
}

// Ratio is the headline number: in-memory peak heap over streamed peak heap.
func (r *MemoryComparison) Ratio() float64 {
	if r.Stream.PeakHeapMB == 0 {
		return 0
	}
	return r.InMem.PeakHeapMB / r.Stream.PeakHeapMB
}

// Format renders the comparison table.
func (r *MemoryComparison) Format() string {
	s := fmt.Sprintf("Memory: in-memory vs out-of-core streaming — %s SF=%g\n", r.Workload, r.SF)
	s += fmt.Sprintf("rows %d, CSV bytes %.1f MB\n\n", r.Rows, float64(r.Bytes)/(1<<20))
	s += fmt.Sprintf("%-10s %14s %12s %12s\n", "mode", "peak heap MB", "total", "export MB/s")
	s += fmt.Sprintf("%-10s %14.1f %12s %12.1f\n", "in-memory", r.InMem.PeakHeapMB, r.InMem.Total.Round(time.Millisecond), r.InMem.MBPerSec)
	s += fmt.Sprintf("%-10s %14.1f %12s %12.1f\n", "streamed", r.Stream.PeakHeapMB, r.Stream.Total.Round(time.Millisecond), r.Stream.MBPerSec)
	s += fmt.Sprintf("\npeak heap ratio (in-memory / streamed): %.1fx\n", r.Ratio())
	return s
}

// RunMemoryComparison runs both arms for one built-in workload at the given
// scale, validating the in-memory database as miragegen does. Each arm
// rebuilds its problem from a fresh trace so neither inherits the other's
// allocations, and both export to a counting sink so disk latency stays out
// of the throughput numbers.
func RunMemoryComparison(name string, sf float64, opts Options) (*MemoryComparison, error) {
	return runMemoryArms(name, sf, opts, true, 0)
}

// RunPaperScaleMemory is the paper-regime variant of RunMemoryComparison:
// a scale factor large enough that the database dwarfs every fixed
// overhead, with the streamed arm executing under a soft runtime memory
// limit (debug.SetMemoryLimit — the programmatic GOMEMLIMIT) to prove the
// whole out-of-core pipeline genuinely runs inside the budget rather than
// merely averaging below it. Validation is skipped — the differential grid
// pins correctness at small scale, and replaying the workload at SF 50+
// would dominate the measurement — so each arm is generate + export, and the
// streamed export's byte count is still checked against the in-memory arm's.
func RunPaperScaleMemory(name string, sf float64, streamLimit int64, opts Options) (*MemoryComparison, error) {
	return runMemoryArms(name, sf, opts, false, streamLimit)
}

// runMemoryArms measures the in-memory arm, then the streamed arm.
func runMemoryArms(name string, sf float64, opts Options, validate bool, streamLimit int64) (*MemoryComparison, error) {
	opts = opts.withDefaults()
	if opts.Seed == 0 {
		opts.Seed = 11
	}
	res := &MemoryComparison{Workload: name, SF: sf}

	// Arm 1: the in-memory pipeline as miragegen runs it, unconstrained —
	// the original stays resident, the synthetic database is materialized
	// whole and (optionally) validated, then every table is encoded to CSV.
	var err error
	res.InMem, err = runMemoryArm(name, sf, opts.Seed, true, 0, func(prob *Problem) error {
		gen, err := Generate(prob, opts)
		if err != nil {
			return err
		}
		res.Rows = int64(gen.DB.TotalRows())
		if validate {
			if _, err := Validate(gen); err != nil {
				return err
			}
		}
		sink := &storage.CountSink{}
		for _, t := range gen.DB.Schema.Tables {
			src := storage.TableSource(gen.DB.Table(t.Name))
			if _, err := storage.StreamTable(context.TODO(), sink, src, prob.Workload.Codecs, 0, opts.Parallelism, nil); err != nil {
				return err
			}
		}
		res.Bytes = sink.Bytes()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Arm 2: out-of-core streaming under the large-SF recipe. The original
	// is released after the problem is built; generation retains only what
	// keygen reads and streams each table as its last dependency wave
	// commits. Only this arm runs under the memory limit: the limit proves
	// the streamed pipeline fits, not that the GC can rescue the in-memory
	// one.
	res.Stream, err = runMemoryArm(name, sf, opts.Seed, false, streamLimit, func(prob *Problem) error {
		gen, err := GenerateStream(prob, opts, StreamConfig{Sink: &storage.CountSink{}})
		if err == nil && gen.Export.Bytes != res.Bytes {
			err = fmt.Errorf("mirage: streamed export wrote %d bytes, in-memory wrote %d", gen.Export.Bytes, res.Bytes)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.InMem.MBPerSec = mbPerSec(res.Bytes, res.InMem.Total)
	res.Stream.MBPerSec = mbPerSec(res.Bytes, res.Stream.Total)
	return res, nil
}

// runMemoryArm builds a fresh problem, keeps the traced original database
// reachable through the run only when keepOriginal is set, and times run
// under the heap watcher — and, with limit > 0, under that soft memory
// limit.
func runMemoryArm(name string, sf float64, seed int64, keepOriginal bool, limit int64, run func(*Problem) error) (MemoryArm, error) {
	prob, original, err := memoryProblem(name, sf, seed)
	if err != nil {
		return MemoryArm{}, err
	}
	if !keepOriginal {
		original = nil
	}
	if limit > 0 {
		prev := debug.SetMemoryLimit(limit)
		defer debug.SetMemoryLimit(prev)
	}
	start := time.Now()
	peak, err := peakHeapDuring(func() error { return run(prob) })
	total := time.Since(start)
	runtime.KeepAlive(original)
	return MemoryArm{PeakHeapMB: float64(peak) / (1 << 20), Total: total}, err
}

// memoryProblem builds a fresh problem (original trace included) for one arm.
func memoryProblem(name string, sf float64, seed int64) (*Problem, *storage.DB, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	schema := spec.NewSchema(sf)
	original, err := workload.GenerateOriginal(schema, seed)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		return nil, nil, err
	}
	prob, err := BuildProblem(original, w)
	if err != nil {
		return nil, nil, err
	}
	return prob, original, nil
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// peakHeapDuring runs fn with a background watcher sampling HeapAlloc every
// few milliseconds and returns the high-water mark observed. It GCs before
// starting so the peak reflects fn's own allocations plus whatever live
// state the caller kept reachable.
func peakHeapDuring(fn func() error) (uint64, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return peak, err
}
