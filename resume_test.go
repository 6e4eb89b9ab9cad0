package mirage

// Crash-recovery tests for manifest-tracked streamed runs: a run interrupted
// mid-export — by an injected fault or a real SIGKILL — must resume from the
// manifest and produce a final tree byte-identical to an uninterrupted run,
// and resume must refuse a manifest whose fingerprint or committed files
// don't match.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/testutil"
	"github.com/dbhammer/mirage/internal/workload"
)

// manifestStream runs one manifest-tracked streamed SSB run into dir: a
// fresh manifest when none exists, the full verify-then-resume protocol
// (Check fingerprint, VerifyCommitted) when one does.
func manifestStream(dir string, shardRows int64, resume bool) (*Result, error) {
	prob, err := buildStreamProblem("ssb", 0.2)
	if err != nil {
		return nil, err
	}
	opts := Options{Seed: 3}
	fp := RunFingerprint(prob, opts)
	fp.Workload = "ssb"
	var m *storage.Manifest
	if resume {
		if m, err = storage.LoadManifest(dir); err != nil {
			return nil, err
		}
		if err := m.Check(fp); err != nil {
			return nil, err
		}
		if err := m.VerifyCommitted(); err != nil {
			return nil, err
		}
	} else {
		m = storage.NewManifest(dir, fp)
		if err := m.Save(); err != nil {
			return nil, err
		}
	}
	return GenerateStream(prob, opts, StreamConfig{
		Sink: &storage.DirSink{Dir: dir}, ShardRows: shardRows, Manifest: m,
	})
}

// buildStreamProblem is streamProblem without the testing.T, so the SIGKILL
// child process (which has no test plumbing worth keeping) can share it.
func buildStreamProblem(name string, sf float64) (*Problem, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	schema := spec.NewSchema(sf)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		return nil, err
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		return nil, err
	}
	return BuildProblem(original, w)
}

// TestResumeByteIdentical is the acceptance bar for crash-safe generation:
// interrupt a streamed run mid-export (injected fault in lineorder's shard
// pool, after all four dimensions committed), scribble torn state over the
// in-flight table, resume, and require the final tree — every CSV plus
// manifest.json itself — byte-identical to an uninterrupted run. The resumed
// arm uses a different shard size on purpose: byte-neutral knobs are outside
// the fingerprint, so resuming at different sharding is legal.
func TestResumeByteIdentical(t *testing.T) {
	golden := testutil.DiffArm{
		Name: "uninterrupted",
		Run: func(dir string) (any, error) {
			_, err := manifestStream(dir, 500, false)
			return nil, err
		},
	}
	testutil.RunDifferential(t, golden, crashThenResume())
}

// crashThenResume is a differential arm that crashes a streamed run
// mid-export and resumes it at another shard size.
func crashThenResume() testutil.DiffArm {
	return testutil.DiffArm{
		Name: "crash+resume",
		Run: func(dir string) (any, error) {
			// Shard item 20 exists only in lineorder (24 shards at SF 0.2 /
			// 500 rows); the dimensions (≤6 shards) commit before it fails.
			in := faultinject.New(faultinject.Rule{Stage: "export/shard", Item: 20, Action: faultinject.Error})
			deactivate := faultinject.Activate(in)
			_, err := manifestStream(dir, 500, false)
			deactivate()
			if err == nil {
				return nil, fmt.Errorf("injected export fault did not fail the run")
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				return nil, fmt.Errorf("crashed run failed for the wrong reason: %w", err)
			}
			m, err := storage.LoadManifest(dir)
			if err != nil {
				return nil, err
			}
			committed := len(m.CommittedTables())
			if committed == 0 || committed == 5 {
				return nil, fmt.Errorf("crashed run committed %d tables, want a partial manifest", committed)
			}
			// Simulate the torn state a real crash leaves: garbage at the
			// in-flight table's final and temp paths. Resume re-exports the
			// table through the atomic tmp+rename protocol, so both are
			// overwritten, never read.
			for _, junk := range []string{"lineorder.csv", "lineorder.csv.tmp"} {
				if err := os.WriteFile(filepath.Join(dir, junk), []byte("torn garbage\n"), 0o644); err != nil {
					return nil, err
				}
			}
			res, err := manifestStream(dir, 700, true)
			if err != nil {
				return nil, err
			}
			if res.Export.Skipped != committed {
				return nil, fmt.Errorf("resume skipped %d tables, manifest had %d committed", res.Export.Skipped, committed)
			}
			if res.Export.Tables != 5-committed {
				return nil, fmt.Errorf("resume exported %d tables, want %d", res.Export.Tables, 5-committed)
			}
			return nil, nil
		},
	}
}

// TestResumeRefusal covers the ways resume must refuse to proceed: a
// manifest recorded under different byte-affecting options or a different
// workload behind the same query names (fingerprint mismatch), and a
// committed file that no longer matches its recorded size
// or content hash (corruption after the fact).
func TestResumeRefusal(t *testing.T) {
	dir := t.TempDir()
	if _, err := manifestStream(dir, 500, false); err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	// Fingerprint mismatch: same directory, different seed. The generation
	// entry point itself must refuse, not just the CLI's pre-check.
	prob := streamProblem(t, "ssb", 0.2)
	m, err := storage.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = GenerateStream(prob, Options{Seed: 4}, StreamConfig{
		Sink: &storage.DirSink{Dir: dir}, Manifest: m,
	})
	if !errors.Is(err, storage.ErrManifestMismatch) {
		t.Fatalf("seed mismatch: err = %v, want ErrManifestMismatch", err)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatch error does not name the differing field: %v", err)
	}

	// Workload mismatch under unchanged query names: one predicate literal
	// of q1.1 differs, everything else (seed included) matches the manifest.
	// Only a hash over the templates' content can tell the two runs apart.
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	dsl := strings.Replace(spec.DSL, "lo_quantity < 25", "lo_quantity < 24", 1)
	if dsl == spec.DSL {
		t.Fatal("SSB DSL no longer holds the literal this test mutates")
	}
	schema := spec.NewSchema(0.2)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, dsl)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = GenerateStream(mutated, Options{Seed: 3}, StreamConfig{
		Sink: &storage.DirSink{Dir: dir}, Manifest: m,
	})
	if !errors.Is(err, storage.ErrManifestMismatch) {
		t.Fatalf("mutated predicate: err = %v, want ErrManifestMismatch", err)
	}
	if !strings.Contains(err.Error(), "workload_hash") {
		t.Fatalf("mismatch error does not name the workload hash: %v", err)
	}

	// Corrupted committed file: flip bytes in a committed CSV. Size-preserving
	// corruption, so only the content hash can catch it.
	path := filepath.Join(dir, "date.csv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCommitted(); !errors.Is(err, storage.ErrManifestVerify) {
		t.Fatalf("corrupted committed file: err = %v, want ErrManifestVerify", err)
	}
}

// TestRunFingerprintStableAcrossRun pins that the fingerprint reads nothing
// generation writes: instantiating the workload's parameters must not change
// it, or a caller fingerprinting after a run could never resume it.
func TestRunFingerprintStableAcrossRun(t *testing.T) {
	prob := streamProblem(t, "tpch", 0.1)
	before := RunFingerprint(prob, Options{Seed: 3})
	if _, err := Generate(prob, Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if after := RunFingerprint(prob, Options{Seed: 3}); after != before {
		t.Fatalf("fingerprint changed across a run:\nbefore %+v\nafter  %+v", before, after)
	}
}

// slowSink delays every write so the parent of the SIGKILL test has a wide
// window to observe a partially committed manifest and kill the child
// mid-export.
type slowSink struct {
	inner *storage.DirSink
	delay time.Duration
}

func (s *slowSink) TableFile(name string) string { return s.inner.TableFile(name) }

func (s *slowSink) OpenTable(name string) (storage.TableWriter, error) {
	tw, err := s.inner.OpenTable(name)
	if err != nil {
		return nil, err
	}
	return &slowWriter{TableWriter: tw, delay: s.delay}, nil
}

type slowWriter struct {
	storage.TableWriter
	delay time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.TableWriter.Write(p)
}

const crashDirEnv = "MIRAGE_CRASH_DIR"

// TestCrashResumeSIGKILL kills a real streamed run with SIGKILL — no
// deferred cleanup, no graceful unwind — and resumes over whatever the
// filesystem holds. The child process (this test re-executed with
// MIRAGE_CRASH_DIR set) streams SSB through a deliberately slow sink; the
// parent polls the manifest until at least one table is durably committed,
// kills the child, resumes in-process, and requires the CSV tree to be
// byte-identical to the in-memory export with no temp files left behind.
func TestCrashResumeSIGKILL(t *testing.T) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		crashChild(dir) // never returns normally under the parent's kill
		return
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	want := goldenCSVs(t, "ssb", 0.2)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashResumeSIGKILL$")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	var childOut strings.Builder
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	defer cmd.Process.Kill()

	// Wait for durable progress: a manifest proving ≥1 table committed.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if m, err := storage.LoadManifest(dir); err == nil && len(m.CommittedTables()) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never committed a table; output:\n%s", childOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handlers, no flushes
		t.Fatalf("killing child: %v", err)
	}
	cmd.Wait()

	res, err := manifestStream(dir, 500, true)
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if res.Export.Skipped == 0 {
		t.Error("resume re-exported everything; manifest progress was lost")
	}
	got := readSinkCSVs(t, dir)
	if len(got) != len(want) {
		t.Fatalf("resumed tree has %d tables, want %d", len(got), len(want))
	}
	for name, wantCSV := range want {
		if got[name] != wantCSV {
			t.Errorf("table %s differs from the in-memory export after SIGKILL+resume", name)
		}
	}
}

// crashChild is the sacrificial run: a fresh manifest-tracked stream through
// a slow sink. It prints any pre-kill failure for the parent's diagnostics.
func crashChild(dir string) {
	prob, err := buildStreamProblem("ssb", 0.2)
	if err == nil {
		opts := Options{Seed: 3}
		fp := RunFingerprint(prob, opts)
		fp.Workload = "ssb"
		m := storage.NewManifest(dir, fp)
		if err = m.Save(); err == nil {
			_, err = GenerateStream(prob, opts, StreamConfig{
				Sink:      &slowSink{inner: &storage.DirSink{Dir: dir}, delay: 15 * time.Millisecond},
				ShardRows: 500, Manifest: m,
			})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
}

// readSinkCSVs reads a manifest-tracked sink directory: CSV contents by
// table name, tolerating manifest.json, failing the test on any temp file or
// other stray entry.
func readSinkCSVs(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch {
		case e.Name() == storage.ManifestName:
		case strings.HasSuffix(e.Name(), ".tmp"):
			t.Errorf("torn temp file left behind: %s", e.Name())
		case strings.HasSuffix(e.Name(), ".csv"):
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[strings.TrimSuffix(e.Name(), ".csv")] = string(b)
		default:
			t.Errorf("unexpected file in sink dir: %s", e.Name())
		}
	}
	return out
}

// TestStreamedHashOnlyUnderManifest: the exporter hashes the content bytes
// only when a manifest records the hash. The same run streamed with and
// without a manifest must leave byte-identical CSV trees, and every hash
// the manifest run recorded must equal the FNV-64a of its committed file.
func TestStreamedHashOnlyUnderManifest(t *testing.T) {
	run := func(withManifest bool) (string, *storage.Manifest) {
		prob := streamProblem(t, "ssb", 1)
		opts := Options{Seed: 3}
		dir := t.TempDir()
		var m *storage.Manifest
		if withManifest {
			m = storage.NewManifest(dir, RunFingerprint(prob, opts))
		}
		if _, err := GenerateStream(prob, opts, StreamConfig{Sink: &storage.DirSink{Dir: dir}, Manifest: m}); err != nil {
			t.Fatal(err)
		}
		return dir, m
	}
	plainDir, _ := run(false)
	trackedDir, m := run(true)
	plain, tracked := readSinkCSVs(t, plainDir), readSinkCSVs(t, trackedDir)
	if len(plain) != len(tracked) {
		t.Fatalf("%d tables without a manifest, %d with one", len(plain), len(tracked))
	}
	for name, csv := range plain {
		if tracked[name] != csv {
			t.Fatalf("table %s: bytes differ between the runs with and without a manifest", name)
		}
	}
	if n := len(m.CommittedTables()); n != len(tracked) {
		t.Fatalf("manifest commits %d tables, the sink holds %d", n, len(tracked))
	}
	if err := m.VerifyCommitted(); err != nil {
		t.Fatalf("VerifyCommitted: %v", err)
	}
}

// TestStreamedFlakySinkRetries is the flaky-device acceptance test: every
// sink write fails transiently twice before succeeding (injected), the
// RetrySink absorbs the faults, and the run completes byte-identical with
// the retries visible in telemetry and zero torn files.
func TestStreamedFlakySinkRetries(t *testing.T) {
	want := goldenCSVs(t, "ssb", 0.2)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	in := faultinject.New(faultinject.Rule{Stage: "sink/write", Item: faultinject.AnyItem, Action: faultinject.Flaky, Times: 2})
	defer faultinject.Activate(in)()

	dir := t.TempDir()
	sink := &storage.RetrySink{
		Sink: &storage.DirSink{Dir: dir}, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 3, Ctx: ctx,
	}
	prob := streamProblem(t, "ssb", 0.2)
	res, err := GenerateStreamCtx(ctx, prob, Options{Seed: 3}, StreamConfig{Sink: sink, ShardRows: 500})
	if err != nil {
		t.Fatalf("flaky-sink run failed despite retries: %v", err)
	}
	if res.Export.Tables != len(want) {
		t.Fatalf("streamed %d tables, want %d", res.Export.Tables, len(want))
	}
	got := readCSVDir(t, dir)
	for name, wantCSV := range want {
		if got[name] != wantCSV {
			t.Errorf("table %s differs from the in-memory export under a flaky sink", name)
		}
	}
	if n := reg.Counter("sink_retries_total").Value(); n < 2 {
		t.Errorf("sink_retries_total = %d, want ≥ 2", n)
	}
	if n := reg.Counter("sink_giveups_total").Value(); n != 0 {
		t.Errorf("sink_giveups_total = %d, want 0", n)
	}
	if fired := in.Fired(); len(fired) != 2 {
		t.Errorf("injector fired %v, want exactly the 2 flaky write failures", fired)
	}
}
