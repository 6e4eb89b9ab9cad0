package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	mirage "github.com/dbhammer/mirage"
	"github.com/dbhammer/mirage/internal/engine"
	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/keygen"
	"github.com/dbhammer/mirage/internal/nonkey"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/rewrite"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/trace"
	"github.com/dbhammer/mirage/internal/validate"
	"github.com/dbhammer/mirage/internal/workload"
)

// The traced replay composes the layers' exported functions in the order
// mirage.BuildProblem and mirage.GenerateStream / mirage.Generate do, but
// serially — keygen finishes before the first table is exported — with a
// span or a counting wrapper at each boundary. obs stays disabled, so the
// program's own telemetry costs what it costs in an untraced run. That the
// replay composes the layers faithfully is checked, not assumed: its tree
// must hash equal to the untraced run's.

// fillStats counts one consumer's calls into nonkey.PlanSource.Fill; shards
// and windows fill concurrently, so the fields are atomic.
type fillStats struct {
	ns, cells, calls atomic.Int64
}

// timedSource is a nonkey.PlanSource that accounts every Fill to st. It
// serves as engine.ChunkSource for windowed keygen and as storage.RowSource
// for export.
type timedSource struct {
	*nonkey.PlanSource
	st *fillStats
}

func (s timedSource) Fill(col string, dst []int64, lo, hi int64) error {
	t := time.Now()
	err := s.PlanSource.Fill(col, dst, lo, hi)
	s.st.ns.Add(int64(time.Since(t)))
	s.st.cells.Add(hi - lo)
	s.st.calls.Add(1)
	return err
}

// sinkStats accounts a sink's TableWriter calls. StreamCSV writes from one
// goroutine and the replay exports one table at a time, so plain fields do.
type sinkStats struct {
	write, commit time.Duration
	writeCalls    int64
	failedCalls   int64
}

type timedSink struct {
	storage.Sink
	st *sinkStats
}

func (s timedSink) OpenTable(name string) (storage.TableWriter, error) {
	tw, err := s.Sink.OpenTable(name)
	if err != nil {
		s.st.failedCalls++
		return nil, err
	}
	return &timedWriter{tw, s.st}, nil
}

type timedWriter struct {
	storage.TableWriter
	st *sinkStats
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := w.TableWriter.Write(p)
	w.st.write += time.Since(t)
	w.st.writeCalls++
	if err != nil {
		w.st.failedCalls++
	}
	return n, err
}

func (w *timedWriter) Commit() error {
	t := time.Now()
	err := w.TableWriter.Commit()
	w.st.commit += time.Since(t)
	if err != nil {
		w.st.failedCalls++
	}
	return err
}

// exportOrder is the order GenerateStream enqueues tables in: those with no
// FK unit first, the rest by the wave that holds their last FK unit, names
// sorted within a wave.
func exportOrder(plan *genplan.Problem) []string {
	last := make(map[string]int, len(plan.Schema.Tables))
	for _, t := range plan.Schema.Tables {
		last[t.Name] = -1
	}
	for wi, wave := range plan.Waves() {
		for _, u := range wave {
			last[u.Table] = wi
		}
	}
	names := make([]string, 0, len(last))
	for name := range last {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if last[names[i]] != last[names[j]] {
			return last[names[i]] < last[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// replayed is what one traced pass measured and committed. The per-layer
// metrics that need an untraced run beside them are added by runTraced.
type replayed struct {
	metrics map[string]float64
	tree    tree
	reports []validate.Report // in memory only
}

// replay runs one traced pass of spec's pipeline.
func replay(spec workloadSpec, seed int64, tmpRoot string) (*replayed, error) {
	ctx := context.Background()
	par := runtime.GOMAXPROCS(0)
	s := genSeed(seed)
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	span := func(name string, t time.Time) { m[name] += time.Since(t).Seconds() }

	// Set-up: workload, sqlparse.
	sc, schema, dsl, err := scenario(spec)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	original, err := workload.GenerateOriginal(schema, originalSeed)
	if err != nil {
		return nil, err
	}
	span("workload.original_s", t)
	t = time.Now()
	w, err := mirage.NewWorkload(schema, sc.Codecs, dsl)
	if err != nil {
		return nil, err
	}
	span("sqlparse.parse_s", t)

	// Build: trace, rewrite, genplan.
	ann, err := trace.New(original)
	if err != nil {
		return nil, err
	}
	rw := rewrite.New(schema)
	forests := make([]*rewrite.Forest, 0, len(w.Templates))
	for _, q := range w.Templates {
		t = time.Now()
		if err := ann.AnnotateAQT(q); err != nil {
			return nil, fmt.Errorf("annotate %s: %w", q.Name, err)
		}
		span("trace.annotate_s", t)
		t = time.Now()
		f, err := rw.Rewrite(q)
		if err != nil {
			return nil, err
		}
		span("rewrite.rewrite_s", t)
		t = time.Now()
		if err := ann.AnnotateForest(f); err != nil {
			return nil, fmt.Errorf("annotate forest %s: %w", q.Name, err)
		}
		span("trace.annotate_s", t)
		forests = append(forests, f)
	}
	m["trace.templates"] = float64(len(w.Templates))
	t = time.Now()
	plan, err := genplan.Build(schema, forests)
	if err != nil {
		return nil, err
	}
	span("genplan.build_s", t)
	ann, original = nil, nil

	// Generate: nonkey, then keygen.
	db := storage.NewDB(schema)
	order, err := schema.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	nkCfg := nonkey.Config{SampleSize: nonkey.DefaultSampleSize, Seed: s, Parallelism: par}
	if spec.Stream {
		nkCfg.Retain = plan.RetainedColumnsWindowed()
	}
	t = time.Now()
	plans, nk, err := nonkey.GenerateTables(ctx, nkCfg, db, order, plan.SelByTable, keygen.DefaultBatchSize)
	if err != nil {
		return nil, err
	}
	span("nonkey.generate_tables_s", t)
	m["nonkey.decouple_s"] = nk.DecoupleTime.Seconds()
	m["nonkey.distribute_s"] = nk.DistribTime.Seconds()
	m["nonkey.gd_s"] = nk.GenTime.Seconds()
	m["nonkey.sample_s"] = nk.SampleTime.Seconds()
	m["nonkey.acc_s"] = nk.ACCTime.Seconds()

	var fillKeygen, fillExport fillStats
	var waveMax time.Duration
	waveStart := time.Now()
	kgCfg := keygen.Config{
		BatchSize: keygen.DefaultBatchSize, Seed: s, Parallelism: par,
		WaveDone: func(int) error {
			now := time.Now()
			waveMax = max(waveMax, now.Sub(waveStart))
			waveStart = now
			return nil
		},
	}
	if spec.Stream {
		sources := make(map[string]engine.ChunkSource, len(db.Tables))
		for name, td := range db.Tables {
			sources[name] = timedSource{nonkey.NewPlanSource(td, plans[name]), &fillKeygen}
		}
		kgCfg.Window = &engine.WindowConfig{Sources: sources}
	}
	t = time.Now()
	ks, err := keygen.Populate(ctx, kgCfg, plan, db)
	if err != nil {
		return nil, err
	}
	span("keygen.populate_s", t)
	relalg.CompleteParams(w.Templates)
	// What stays resident once keygen is done: everything in memory, only
	// the retained and FK columns when streaming.
	for _, tbl := range schema.Tables {
		for i := range tbl.Columns {
			m["nonkey.retained_cells"] += float64(len(db.Table(tbl.Name).Col(tbl.Columns[i].Name)))
		}
	}
	m["keygen.cs_s"] = ks.CSTime.Seconds()
	m["keygen.cp_s"] = ks.CPTime.Seconds()
	m["keygen.pf_s"] = ks.PFTime.Seconds()
	m["keygen.cp_rounds"] = float64(ks.CPRounds)
	m["keygen.partitions"] = float64(ks.Partitions)
	m["keygen.waves"] = float64(len(plan.Waves()))
	m["keygen.wave_max_s"] = waveMax.Seconds()
	for _, d := range ks.Degradations {
		m["keygen.degradations"] += float64(d.Count)
	}
	m["keygen.cp_budget"] = float64(ks.CPBudget)
	m["nonkey.fill_keygen_s"] = time.Duration(fillKeygen.ns.Load()).Seconds()
	m["nonkey.fill_keygen_cells"] = float64(fillKeygen.cells.Load())
	m["nonkey.fill_keygen_calls"] = float64(fillKeygen.calls.Load())
	if spec.Stream {
		m["engine.window_eval_s"] = m["keygen.cs_s"] - m["nonkey.fill_keygen_s"]
	}

	// Export: storage, to a real directory.
	dir, err := sinkDir(tmpRoot, spec.Name+"-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reports []validate.Report
	if spec.Stream {
		var sink sinkStats
		out := timedSink{&storage.DirSink{Dir: dir}, &sink}
		for _, name := range exportOrder(plan) {
			src := timedSource{nonkey.NewPlanSource(db.Table(name), plans[name]), &fillExport}
			tw, err := out.OpenTable(name)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			// The program hashes the content bytes on their way to the
			// sink (for its run manifest); so does the replay.
			st, err := storage.StreamCSV(ctx, io.MultiWriter(tw, fnv.New64a()), src, sc.Codecs, 0, par)
			span("storage.stream_csv_s", t)
			if err == nil {
				err = tw.Commit()
			}
			if err != nil {
				tw.Abort()
				return nil, fmt.Errorf("export %s: %w", name, err)
			}
			m["storage.rows_out"] += float64(st.Rows)
			m["storage.bytes_out"] += float64(st.Bytes)
			m["storage.shards"] += float64(st.Shards)
		}
		m["storage.sink_write_s"] = sink.write.Seconds()
		m["storage.sink_write_calls"] = float64(sink.writeCalls)
		m["storage.sink_commit_s"] = sink.commit.Seconds()
		m["storage.sink_failed_calls"] = float64(sink.failedCalls)
		m["nonkey.fill_export_s"] = time.Duration(fillExport.ns.Load()).Seconds()
		m["nonkey.fill_export_cells"] = float64(fillExport.cells.Load())
		filled := m["nonkey.fill_keygen_cells"] + m["nonkey.fill_export_cells"]
		if busy := m["nonkey.fill_keygen_s"] + m["nonkey.fill_export_s"]; busy > 0 {
			m["nonkey.fill_mcells_per_s"] = filled / 1e6 / busy
		}
		m["nonkey.regen_amplification"] = filled / m["nonkey.fill_export_cells"]
		m["replay.layers_sum_s"] = m["nonkey.generate_tables_s"] + m["keygen.populate_s"] + m["storage.stream_csv_s"] + m["storage.sink_commit_s"]
	} else {
		t = time.Now()
		if err := storage.ExportDir(dir, db, sc.Codecs); err != nil {
			return nil, err
		}
		span("storage.export_dir_s", t)
		m["replay.layers_sum_s"] = m["nonkey.generate_tables_s"] + m["keygen.populate_s"] + m["storage.export_dir_s"]

		t = time.Now()
		reports, err = validate.WorkloadParallelCtx(ctx, db, w.Templates, par)
		if err != nil {
			return nil, err
		}
		span("validate.workload_s", t)
		m["validate.queries"] = float64(len(reports))
		for _, rep := range reports {
			if rep.Unsupported {
				m["validate.unsupported"]++
			}
		}

		// The engine alone: every instantiated template, one engine, serial.
		eng, err := engine.New(db)
		if err != nil {
			return nil, err
		}
		var scanned int64
		t = time.Now()
		for _, q := range w.Templates {
			if _, err := eng.Execute(q, false); err != nil {
				return nil, err
			}
			for _, name := range q.Root.Tables(nil) {
				scanned += schema.MustTable(name).Rows
			}
		}
		span("engine.replay_s", t)
		m["engine.replay_mrows_per_s"] = float64(scanned) / 1e6 / m["engine.replay_s"]

		// The codec and shard scheduling alone: no regeneration, no disk.
		var count storage.CountSink
		for _, tbl := range schema.Tables {
			tw, _ := count.OpenTable(tbl.Name) // CountSink cannot fail to open
			t = time.Now()
			st, err := storage.StreamCSV(ctx, tw, storage.TableSource(db.Table(tbl.Name)), sc.Codecs, 0, par)
			if err != nil {
				return nil, err
			}
			span("storage.encode_only_s", t)
			m["storage.shards"] += float64(st.Shards)
			m["storage.rows_out"] += float64(st.Rows)
			m["storage.bytes_out"] += float64(st.Bytes)
		}
		m["storage.encode_only_mb_per_s"] = m["storage.bytes_out"] / 1e6 / m["storage.encode_only_s"]
	}

	tr, err := hashTree(dir)
	if err != nil {
		return nil, err
	}
	return &replayed{m, tr, reports}, nil
}

// runTraced gives the per-layer numbers of one workload at one seed: two
// untraced cycles (the first, a tenth slower while the process's heap grows,
// only warms up; the second is the baseline the replay's tree and time are
// held against), one untraced cycle at Parallelism 1, then traced replays
// until cfg.Seconds are spent, cfg.MinReplays at least; from the second on,
// the exact counts must repeat. Times are medians over the replays.
func runTraced(cfg runConfig) (*runResult, error) {
	r := newResult(cfg, true)
	start := time.Now()
	var base *cycle
	for _, what := range []string{"warm-up", "untraced"} {
		c, err := runCycle(cfg.Spec, cfg.Seed, 0, cfg.TmpRoot)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", cfg.Spec.Name, what, err)
		}
		r.checkCommitted(what, c)
		base = c
	}
	r.Tree, r.RSSReset = base.tree, base.rssReset
	p1, err := runCycle(cfg.Spec, cfg.Seed, 1, cfg.TmpRoot)
	if err != nil {
		return nil, fmt.Errorf("%s parallelism 1: %w", cfg.Spec.Name, err)
	}
	r.checkSameTree("parallelism 1 against parallelism 0", p1.tree, base.tree)

	var first map[string]float64
	for n := 0; n < cfg.MinReplays || time.Since(start).Seconds() < cfg.Seconds; n++ {
		rp, err := replay(cfg.Spec, cfg.Seed, cfg.TmpRoot)
		if err != nil {
			return nil, fmt.Errorf("%s replay %d: %w", cfg.Spec.Name, n, err)
		}
		r.checkSameTree(fmt.Sprintf("replay %d against the untraced run", n), rp.tree, base.tree)
		r.checkReports(cfg.Spec, rp.reports)
		m := rp.metrics
		if first == nil {
			first = m
		}
		for _, d := range perLayer {
			if d.Exact {
				r.check(m[d.Name] == first[d.Name], "replay %d: %s = %v, replay 0 counted %v", n, d.Name, m[d.Name], first[d.Name])
			}
		}
		for name, v := range m {
			r.sample(name, v)
		}
	}
	for name, s := range r.Samples {
		r.Metrics[name] = median(s)
	}
	r.Metrics["parallel.p1_generate_s"] = p1.generateS
	r.Metrics["parallel.speedup_x"] = p1.generateS / base.generateS
	r.Metrics["replay.gap_pct"] = 100 * (r.Metrics["replay.layers_sum_s"] - base.generateS) / base.generateS
	r.finish()
	return r, nil
}
