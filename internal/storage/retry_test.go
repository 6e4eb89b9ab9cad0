package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
)

// fastRetry wraps sink with millisecond backoff so tests don't sleep.
func fastRetry(sink Sink) *RetrySink {
	return &RetrySink{Sink: sink, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
}

// TestRetrySinkFlaky drives each sink operation through a flaky injection
// (fails twice, then succeeds) and asserts the op recovers, the file is
// intact, and the retry counters account for every backoff.
func TestRetrySinkFlaky(t *testing.T) {
	for _, stage := range []string{"sink/open", "sink/write", "sink/commit"} {
		t.Run(stage, func(t *testing.T) {
			reg := obs.NewRegistry()
			in := faultinject.New(faultinject.Rule{Stage: stage, Item: faultinject.AnyItem, Action: faultinject.Flaky, Times: 2})
			defer faultinject.Activate(in)()

			dir := t.TempDir()
			sink := fastRetry(&DirSink{Dir: dir})
			sink.Ctx = obs.WithRegistry(context.Background(), reg)
			tw, err := sink.OpenTable("tbl")
			if err != nil {
				t.Fatalf("OpenTable: %v", err)
			}
			if _, err := io.WriteString(tw, "a,b\n1,2\n"); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := tw.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "tbl.csv"))
			if err != nil || string(got) != "a,b\n1,2\n" {
				t.Fatalf("committed file = %q, %v", got, err)
			}
			if n := reg.Counter("sink_retries_total").Value(); n != 2 {
				t.Errorf("sink_retries_total = %d, want 2", n)
			}
			if n := reg.Counter("sink_giveups_total").Value(); n != 0 {
				t.Errorf("sink_giveups_total = %d, want 0", n)
			}
			if fired := in.Fired(); len(fired) != 2 {
				t.Errorf("injector fired %v, want 2 flaky firings", fired)
			}
			// No torn or temp files.
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if e.Name() != "tbl.csv" {
					t.Errorf("unexpected file: %s", e.Name())
				}
			}
		})
	}
}

// failingSink returns a scripted error from every op.
type failingSink struct {
	err   error
	calls int
}

func (s *failingSink) OpenTable(string) (TableWriter, error) {
	s.calls++
	return nil, s.err
}

func TestRetrySinkTerminalErrorFailsFast(t *testing.T) {
	fs := &failingSink{err: errors.New("disk on fire")}
	sink := fastRetry(fs)
	if _, err := sink.OpenTable("t"); err == nil {
		t.Fatal("want error")
	}
	if fs.calls != 1 {
		t.Fatalf("terminal error retried: %d calls, want 1", fs.calls)
	}
	// Cancellation is terminal even when marked transient further out.
	fs2 := &failingSink{err: fault.MarkTransient(context.Canceled)}
	sink2 := fastRetry(fs2)
	if _, err := sink2.OpenTable("t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through, got %v", err)
	}
	if fs2.calls != 1 {
		t.Fatalf("canceled op retried: %d calls, want 1", fs2.calls)
	}
}

func TestRetrySinkGivesUp(t *testing.T) {
	reg := obs.NewRegistry()
	cause := fault.MarkTransient(errors.New("still flaky"))
	fs := &failingSink{err: cause}
	sink := fastRetry(fs)
	sink.MaxAttempts = 3
	sink.Ctx = obs.WithRegistry(context.Background(), reg)
	_, err := sink.OpenTable("t")
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped cause", err)
	}
	if fs.calls != 3 {
		t.Fatalf("%d attempts, want 3", fs.calls)
	}
	if n := reg.Counter("sink_retries_total").Value(); n != 2 {
		t.Errorf("sink_retries_total = %d, want 2", n)
	}
	if n := reg.Counter("sink_giveups_total").Value(); n != 1 {
		t.Errorf("sink_giveups_total = %d, want 1", n)
	}
}

// TestRetrySinkBackoffHonorsContext: a canceled context aborts the backoff
// sleep immediately instead of serving out a long delay.
func TestRetrySinkBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fs := &failingSink{err: fault.MarkTransient(errors.New("transient"))}
	sink := &RetrySink{Sink: fs, BaseDelay: time.Hour, Ctx: ctx}
	start := time.Now()
	_, err := sink.OpenTable("t")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored canceled context (%v)", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fs.calls != 1 {
		t.Fatalf("%d attempts before canceled backoff, want 1", fs.calls)
	}
}

// shortWriter consumes at most 3 bytes per call and fails transiently every
// other call, exercising the resume-at-unwritten-byte path.
type shortWriter struct {
	buf   []byte
	fails int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	n := min(3, len(p))
	w.buf = append(w.buf, p[:n]...)
	if n < len(p) {
		w.fails++
		return n, fault.MarkTransient(fmt.Errorf("partial write"))
	}
	return n, nil
}
func (w *shortWriter) Commit() error { return nil }
func (w *shortWriter) Abort() error  { return nil }

type shortSink struct{ w *shortWriter }

func (s *shortSink) OpenTable(string) (TableWriter, error) { return s.w, nil }

func TestRetrySinkWriteResumesAtOffset(t *testing.T) {
	sw := &shortWriter{}
	sink := fastRetry(&shortSink{w: sw})
	sink.MaxAttempts = 10
	tw, err := sink.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const payload = "abcdefgh" // 8 bytes → 3+3+2, two transient failures
	n, err := tw.Write([]byte(payload))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != len(payload) || string(sw.buf) != payload {
		t.Fatalf("wrote %d bytes, buffer %q; want full %q with no duplicates", n, sw.buf, payload)
	}
	if sw.fails != 2 {
		t.Fatalf("%d transient failures, want 2", sw.fails)
	}
}

// TestDirSinkCommitRetrySafe: a Commit that already succeeded (or partially
// progressed) may be called again without damage — the property RetrySink's
// commit retries rely on.
func TestDirSinkCommitRetrySafe(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: dir}
	tw, err := sink.OpenTable("tbl")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(tw, "x\n")
	if err := tw.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := tw.Commit(); err != nil {
		t.Fatalf("re-Commit after success: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "tbl.csv"))
	if err != nil || string(got) != "x\n" {
		t.Fatalf("file = %q, %v", got, err)
	}
}

// TestDirSinkAbortJoinsErrors: Abort after a completed Commit has nothing to
// remove and must not invent errors; Abort on a fresh writer removes the
// temp file and reports nothing.
func TestDirSinkAbortJoinsErrors(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: dir}
	tw, err := sink.OpenTable("tbl")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(tw, "x\n")
	if err := tw.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("files after abort: %v", ents)
	}
	// Abort twice: the second must be a no-op (file already closed and
	// removed — the errors.Join path must not surface the double close).
	tw2, err := sink.OpenTable("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := tw2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tw2.Abort(); err != nil {
		t.Fatalf("second Abort: %v", err)
	}
}
