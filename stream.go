package mirage

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/storage"
)

// StreamConfig configures out-of-core generation: instead of materializing
// every table fully in memory, GenerateStream retains only the columns
// downstream stages genuinely read (FK columns and the join-view predicate
// columns keygen consumes — plus, optionally, the columns validation needs)
// and streams each table's CSV to the sink as soon as its last FK
// dependency wave commits, regenerating the unretained payload shard by
// shard from the per-column layouts. Peak memory is the keygen working set
// plus O(workers × ShardRows), not O(database).
type StreamConfig struct {
	// Sink receives one writer per table (see storage.DirSink for the
	// file-per-table CSV layout, storage.CountSink for dry runs).
	Sink storage.Sink
	// ShardRows is the export shard size in rows (0 = the default 64k); a
	// negative value is rejected. The emitted bytes are identical at any
	// value.
	ShardRows int64
	// RetainForValidate additionally keeps every column the workload's
	// templates reference, so Validate can replay the workload after the
	// streamed run. Costs memory proportional to the referenced columns.
	RetainForValidate bool
	// WindowRows sizes windowed engine evaluation: keygen's join-constraint
	// selections evaluate over [lo,hi) row windows regenerated on the fly,
	// so predicate columns are not retained at all. 0 uses
	// engine.DefaultWindowRows, a positive value sets the window size in
	// rows, and a negative value is rejected.
	WindowRows int64
	// Manifest, when set, makes the run crash-safe: per-table export state
	// (pending → committed, with row count and content hash) is persisted
	// atomically in the sink directory as each table commits, and tables the
	// manifest already proves committed — from an interrupted earlier run
	// with a matching fingerprint — are skipped instead of re-exported.
	// Keygen still replays every wave (its solutions feed later tables), so
	// the resumed run's final tree is byte-identical to an uninterrupted
	// one. Callers create a fresh manifest with storage.NewManifest, or load
	// and verify an existing one with storage.LoadManifest +
	// Check(RunFingerprint(...)) + VerifyCommitted before resuming.
	Manifest *storage.Manifest
}

// ExportStats summarizes a streamed export.
type ExportStats struct {
	Tables int
	Rows   int64
	Bytes  int64
	Shards int
	// Skipped counts tables the run manifest proved committed by an earlier
	// interrupted run; their rows and bytes are not re-counted here.
	Skipped int
}

// GenerateStream is GenerateStreamCtx with a background context.
func GenerateStream(p *Problem, opts Options, sc StreamConfig) (*Result, error) {
	return GenerateStreamCtx(context.Background(), p, opts, sc)
}

// GenerateStreamCtx runs the pipeline in out-of-core mode. The generated
// database content — and therefore every exported byte — is identical to
// what GenerateCtx plus ExportCSVDir would produce for the same seed, at
// any parallelism and shard size; only the retention policy differs. Tables
// are streamed by a dedicated exporter goroutine that overlaps export I/O
// with the remaining dependency waves' solves: a table with no FK units
// streams right after non-key generation, every other table as soon as the
// wave holding its last FK unit commits. Cancellation, deadline expiry, and
// sink failures unwind the whole pipeline with all goroutines joined, and a
// failed table is aborted on its sink writer (no torn files).
func GenerateStreamCtx(ctx context.Context, p *Problem, opts Options, sc StreamConfig) (*Result, error) {
	if sc.Sink == nil {
		return nil, fmt.Errorf("mirage: streaming generation requires a sink")
	}
	if sc.ShardRows < 0 {
		return nil, fmt.Errorf("mirage: StreamConfig.ShardRows %d is out of range (0 = default, positive = rows per shard)", sc.ShardRows)
	}
	if sc.WindowRows < 0 {
		return nil, fmt.Errorf("mirage: StreamConfig.WindowRows %d is out of range (0 = default, positive = rows per window)", sc.WindowRows)
	}
	if sc.Manifest != nil {
		// Refuse to resume (or even record) under a manifest describing a
		// different run: stitching two generations together would silently
		// produce a database no single run could have emitted. The workload
		// label is caller-owned, so it is carried over rather than derived.
		fp := RunFingerprint(p, opts)
		fp.Workload = sc.Manifest.Fingerprint.Workload
		if err := sc.Manifest.Check(fp); err != nil {
			return nil, fmt.Errorf("mirage: %w", err)
		}
	}
	return generate(ctx, p, opts, &sc)
}

// RunFingerprint derives the resume identity of a generation run: the
// schema structure (tables, row counts, column types and domains), the
// workload's full content, and every byte-affecting option — seed and sample
// size — normalized through the same defaulting generation applies, so an
// explicit default and an omitted value fingerprint equally. The workload
// hash covers every template's tree with its annotated cardinalities, every
// parameter's original value, and the codec set, so two workloads that share
// query names but differ in a predicate, an annotation or a literal never
// resume into one tree. It reads only what generation leaves alone (never a
// parameter's instantiated value), so it is the same before and after a run
// on the same Problem. Byte-neutral knobs (parallelism, shard size, window
// size) are excluded on purpose: the pipeline's output is identical at any
// value, so a run may be resumed at, say, a different worker count or shard
// size. Compare manifests with
// storage.Manifest.Check; the Workload label field is left empty for the
// caller to fill.
func RunFingerprint(p *Problem, opts Options) storage.Fingerprint {
	opts = opts.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;", len(p.Workload.Templates))
	for _, q := range p.Workload.Templates {
		// Render a private copy with its parameters marked uninstantiated:
		// Format then prints each literal as id~original.
		q = q.Clone()
		params := q.Params()
		for _, pm := range params {
			pm.Instantiated = false
		}
		fmt.Fprintf(h, "%s\n%s", q.Name, q.Root.Format())
		for _, pm := range params {
			fmt.Fprintf(h, "%s %d %v %q;", pm.ID, pm.Orig, pm.OrigList, pm.Pattern)
		}
	}
	keys := make([]string, 0, len(p.Workload.Codecs))
	for k := range p.Workload.Codecs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%T;", k, p.Workload.Codecs[k])
	}
	return storage.Fingerprint{
		SchemaHash:   storage.SchemaFingerprint(p.Workload.Schema),
		WorkloadHash: fmt.Sprintf("%016x", h.Sum64()),
		Seed:         opts.Seed,
		SampleSize:   opts.SampleSize,
	}
}

// tableReadyWaves maps each dependency wave index to the tables whose last
// FK unit lies in it (sorted for a deterministic export order at equal
// readiness). Key -1 holds the tables with no FK units at all.
func tableReadyWaves(plan *genplan.Problem) map[int][]string {
	last := make(map[string]int, len(plan.Schema.Tables))
	for _, t := range plan.Schema.Tables {
		last[t.Name] = -1
	}
	for wi, wave := range plan.Waves() {
		for _, u := range wave {
			last[u.Table] = wi
		}
	}
	ready := make(map[int][]string)
	for name, wi := range last {
		ready[wi] = append(ready[wi], name)
	}
	for wi := range ready {
		sort.Strings(ready[wi])
	}
	return ready
}

// exporter streams tables to the sink from a dedicated goroutine, consuming
// table names in readiness order while keygen keeps solving later waves.
type exporter struct {
	ch    chan string
	done  chan struct{}
	err   error
	stats ExportStats
}

// sinkTableFile is the file name the manifest records for a table: the
// sink's own naming when it exports files (storage.FileNamer), the plain
// CSV convention otherwise.
func sinkTableFile(sink storage.Sink, name string) string {
	if fn, ok := sink.(storage.FileNamer); ok {
		return fn.TableFile(name)
	}
	return name + ".csv"
}

func startExporter(ctx context.Context, cancel context.CancelFunc, span *obs.Span, db *storage.DB,
	plans map[string]*nonkey.TablePlan, codecs storage.CodecSet, sc StreamConfig, workers int) *exporter {
	exp := &exporter{
		ch:   make(chan string, len(db.Tables)),
		done: make(chan struct{}),
	}
	reg := obs.From(ctx)
	events := reg.Events()
	events.Emit(obs.Event{Type: obs.EventStageStart, Stage: "generate/export"})
	go func() {
		defer close(exp.done)
		defer events.Emit(obs.Event{Type: obs.EventStageFinish, Stage: "generate/export"})
		for name := range exp.ch {
			if exp.err != nil {
				continue // drain: first failure wins, later tables are skipped
			}
			if sc.Manifest != nil && sc.Manifest.Committed(name) {
				// An earlier run already committed this table durably (the
				// caller verified size + content hash before resuming);
				// re-exporting it would only burn I/O to produce the same
				// bytes. The span records the skip for the run trace.
				if span != nil {
					span.Child("export:" + name + " (resume-skip)").End()
				}
				st, _ := sc.Manifest.Table(name)
				events.Emit(obs.Event{Type: obs.EventExportSkipped, Table: name, Rows: st.Rows, Bytes: st.Bytes})
				exp.stats.Skipped++
				continue
			}
			var tSpan *obs.Span
			if span != nil {
				tSpan = span.Child("export:" + name)
			}
			events.Emit(obs.Event{Type: obs.EventExportPending, Table: name})
			var err error
			if sc.Manifest != nil {
				// Pending is durably recorded before the first byte flows: a
				// crash mid-table leaves an entry that names what was in
				// flight, and resume re-exports exactly that.
				err = sc.Manifest.MarkPending(name, sinkTableFile(sc.Sink, name))
			}
			var st storage.StreamStats
			// The manifest hash taps the content bytes before any sink-side
			// compression, so it matches manifest verification (which
			// decompresses .gz on read) and is identical across plain and
			// gzip sinks. Only the manifest reads it, so without one the
			// bytes go unhashed.
			sum := fnv.New64a()
			var tap io.Writer
			if sc.Manifest != nil {
				tap = sum
			}
			if err == nil {
				src := nonkey.NewPlanSource(db.Table(name), plans[name])
				st, err = storage.StreamTable(ctx, sc.Sink, src, codecs, db.Schema, sc.ShardRows, workers, tap)
			}
			if err == nil && sc.Manifest != nil {
				// Recorded only after the sink's Commit returned: the
				// manifest never claims more than the disk holds.
				err = sc.Manifest.MarkCommitted(name, sinkTableFile(sc.Sink, name), st.Rows, st.Bytes, sum.Sum64())
			}
			tSpan.End()
			sampleHeap(reg)
			if err != nil {
				events.Emit(obs.Event{Type: obs.EventExportError, Table: name, Err: err.Error()})
				exp.err = fmt.Errorf("table %s: %w", name, err)
				cancel() // unwind keygen — the run cannot succeed anymore
				continue
			}
			events.Emit(obs.Event{Type: obs.EventExportCommitted, Table: name, Rows: st.Rows, Bytes: st.Bytes})
			exp.stats.Tables++
			exp.stats.Rows += st.Rows
			exp.stats.Bytes += st.Bytes
			exp.stats.Shards += st.Shards
		}
	}()
	return exp
}

func (e *exporter) enqueue(tables []string) {
	for _, name := range tables {
		e.ch <- name
	}
}

// finish closes the queue, joins the exporter goroutine and returns its
// first error.
func (e *exporter) finish() error {
	close(e.ch)
	<-e.done
	return e.err
}
