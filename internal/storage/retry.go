package storage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
)

// Retry defaults: four attempts spaced 5ms → 10ms → 20ms (pre-jitter) cover
// the blips a flaky local disk or network mount produces without stalling a
// doomed run for long; callers talking to genuinely slow storage raise them.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBase     = 5 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
)

// FileNamer is the optional Sink extension for sinks whose committed tables
// land in named files (DirSink). The run manifest records the name so a
// resumed run can locate and verify the committed file.
type FileNamer interface {
	TableFile(name string) string
}

// RetrySink decorates any Sink with bounded exponential backoff for
// transient I/O errors: every sink operation (open, write, commit) that
// fails with an error internal/fault.Transient recognizes is retried up to
// MaxAttempts times with exponentially growing, deterministically jittered
// sleeps. Terminal errors — cancellation, deadline expiry, anything
// unclassified — propagate immediately, and backoff sleeps watch Ctx so a
// canceled run aborts promptly instead of sleeping through its shutdown.
//
// Write retries resume at the first unwritten byte (the io.Writer contract
// reports how many bytes each attempt consumed), and DirSink's Commit is
// retry-safe (it resumes at the first incomplete step), so a retried
// operation never duplicates bytes or re-closes handles.
//
// Telemetry: each performed retry increments sink_retries_total; exhausting
// every attempt increments sink_giveups_total.
type RetrySink struct {
	// Sink is the decorated sink.
	Sink Sink
	// MaxAttempts bounds the total tries per operation (≤0 = default 4).
	MaxAttempts int
	// BaseDelay is the first backoff sleep (0 = default 5ms); each further
	// attempt doubles it, capped at MaxDelay (0 = default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the deterministic jitter stream (splitmix64 over
	// Seed ⊕ retry ordinal): two runs with the same seed and the same fault
	// pattern back off identically — reproducible, but uncorrelated across
	// concurrent writers.
	Seed int64
	// Ctx bounds backoff sleeps (nil = context.Background()); its
	// cancellation aborts a sleeping retry immediately. Retries and giveups
	// are recorded in the registry it carries (obs.From).
	Ctx context.Context

	retrySeq atomic.Uint64 // ordinal of the next retry, jitter stream input
}

// OpenTable implements Sink: the open itself is retried, and the returned
// writer retries its writes and commits.
func (s *RetrySink) OpenTable(name string) (TableWriter, error) {
	var tw TableWriter
	err := s.do("sink/open", func() error {
		var e error
		tw, e = s.Sink.OpenTable(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &retryWriter{sink: s, tw: tw}, nil
}

// TableFile forwards the FileNamer extension of the decorated sink, so a
// manifest-keeping caller sees through the decoration.
func (s *RetrySink) TableFile(name string) string {
	if fn, ok := s.Sink.(FileNamer); ok {
		return fn.TableFile(name)
	}
	return name + ".csv"
}

// do runs op through the retry loop. The faultinject.Fire call sits inside
// the loop, below the retry logic, so an armed Flaky rule fails the first N
// attempts and then lets the real operation run — the injected failure is
// indistinguishable from a flaky device to everything above.
func (s *RetrySink) do(stage string, op func() error) error {
	attempts := s.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetryAttempts
	}
	reg := obs.From(s.ctx())
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			reg.Counter("sink_retries_total").Inc()
			reg.Events().Emit(obs.Event{
				Type: obs.EventSinkRetry, Stage: stage, Count: int64(a), Err: err.Error(),
			})
			if serr := s.backoff(a); serr != nil {
				return errors.Join(fmt.Errorf("storage: %s: retry aborted: %w", stage, serr), err)
			}
		}
		err = faultinject.Fire(stage, faultinject.AnyItem)
		if err == nil {
			err = op()
		}
		if err == nil {
			return nil
		}
		if !fault.Transient(err) {
			return err
		}
	}
	reg.Counter("sink_giveups_total").Inc()
	reg.Events().Emit(obs.Event{
		Type: obs.EventSinkGiveup, Stage: stage, Count: int64(attempts), Err: err.Error(),
	})
	return fmt.Errorf("storage: %s: giving up after %d attempts: %w", stage, attempts, err)
}

// backoff sleeps before attempt a (a ≥ 1): BaseDelay·2^(a-1) capped at
// MaxDelay, then jittered into [delay/2, delay) so concurrent writers
// hitting the same fault don't thunder back in lockstep. The sleep aborts
// with the context's error the moment Ctx is canceled.
func (s *RetrySink) backoff(a int) error {
	base := s.BaseDelay
	if base <= 0 {
		base = DefaultRetryBase
	}
	maxd := s.MaxDelay
	if maxd <= 0 {
		maxd = DefaultRetryMax
	}
	delay := base << (a - 1)
	if delay > maxd || delay <= 0 { // <<= overflow guard
		delay = maxd
	}
	if half := delay / 2; half > 0 {
		z := splitmix64(uint64(s.Seed) ^ s.retrySeq.Add(1))
		delay = half + time.Duration(z%uint64(half))
	}
	ctx := s.ctx()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ctx is Ctx, or the background context when none is set.
func (s *RetrySink) ctx() context.Context {
	if s.Ctx == nil {
		return context.Background()
	}
	return s.Ctx
}

// splitmix64 is the jitter PRNG finalizer (same construction faultinject
// uses for seed-derived item selection).
func splitmix64(z uint64) uint64 {
	z = (z + 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// retryWriter retries the write/commit path of one table.
type retryWriter struct {
	sink *RetrySink
	tw   TableWriter
}

// Write retries transient failures, resuming each attempt at the first byte
// the previous one did not consume.
func (w *retryWriter) Write(p []byte) (int, error) {
	total := 0
	err := w.sink.do("sink/write", func() error {
		n, werr := w.tw.Write(p[total:])
		total += n
		return werr
	})
	return total, err
}

// Commit retries transient failures; the decorated writer's Commit must be
// retry-safe (DirSink's is: it resumes at the first incomplete step).
func (w *retryWriter) Commit() error {
	return w.sink.do("sink/commit", w.tw.Commit)
}

// Abort is best-effort cleanup on an already-failing path: it runs once,
// without retries (backing off to salvage an abort would only delay the
// run's unwinding).
func (w *retryWriter) Abort() error { return w.tw.Abort() }
