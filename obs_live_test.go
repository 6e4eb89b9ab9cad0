package mirage

// Live observability integration: one streamed SSB run with the full layer
// on — registry, progress tracker, obshttp server, SSE tail, JSONL tee,
// trace export — must (a) serve /progress snapshots whose final rows/bytes
// match the run manifest exactly, (b) deliver a gapless event stream over
// SSE covering the run's lifecycle, and (c) emit a trace.json that parses
// as trace-event JSON. A second run with telemetry fully disabled must
// produce byte-identical manifest hashes (the PR 4 byte-neutrality
// contract extended to the event layer).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/obs"
	"github.com/dbhammer/mirage/internal/obshttp"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/workload"
)

// buildSSBProblem assembles the small-SF SSB problem used across this file.
func buildSSBProblem(t *testing.T, sf float64) *Problem {
	t.Helper()
	spec, err := workload.ByName("ssb")
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.NewSchema(sf)
	original, err := workload.GenerateOriginal(schema, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(schema, spec.Codecs, spec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := BuildProblem(original, w)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestLiveObservabilityStreamedSSB(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)

	var jsonl bytes.Buffer
	reg.Events().TeeTo(&jsonl)

	srv, err := obshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Tail /events from before the run starts: the SSE stream must deliver
	// the whole lifecycle without the test ever polling mid-run.
	sseResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	var (
		mu       sync.Mutex
		sseTypes []obs.EventType
	)
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			payload, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev obs.Event
			if json.Unmarshal([]byte(payload), &ev) == nil {
				mu.Lock()
				sseTypes = append(sseTypes, ev.Type)
				mu.Unlock()
			}
		}
	}()

	stop := obs.StartSampler(reg, 20*time.Millisecond)
	defer stop()

	prob := buildSSBProblem(t, 0.2)
	dir := t.TempDir()
	opts := Options{Seed: 11, Parallelism: 4}
	fp := RunFingerprint(prob, opts)
	fp.Workload = "ssb"
	manifest := storage.NewManifest(dir, fp)
	if err := manifest.Save(); err != nil {
		t.Fatal(err)
	}
	res, err := GenerateStreamCtx(ctx, prob, opts, StreamConfig{
		Sink: &storage.DirSink{Dir: dir}, Manifest: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}

	// /progress after the run: final rows and bytes must match the manifest
	// (and the run's own export stats) exactly.
	pResp, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ProgressSnapshot
	if err := json.NewDecoder(pResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	pResp.Body.Close()
	if snap.DoneRows != res.Export.Rows || snap.DoneBytes != res.Export.Bytes {
		t.Fatalf("/progress final rows/bytes = %d/%d, export stats = %d/%d",
			snap.DoneRows, snap.DoneBytes, res.Export.Rows, res.Export.Bytes)
	}
	loaded, err := storage.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mRows, mBytes int64
	for _, name := range loaded.CommittedTables() {
		st, ok := loaded.Table(name)
		if !ok {
			t.Fatalf("manifest lost table %s", name)
		}
		mRows += st.Rows
		mBytes += st.Bytes
	}
	if snap.DoneRows != mRows || snap.DoneBytes != mBytes {
		t.Fatalf("/progress rows/bytes = %d/%d, manifest = %d/%d", snap.DoneRows, snap.DoneBytes, mRows, mBytes)
	}
	if !snap.Done || snap.PctDone != 1 || snap.EtaNS != 0 {
		t.Fatalf("final snapshot not done: %+v", snap)
	}
	if snap.TablesCommitted != 5 {
		t.Fatalf("committed = %d, want 5", snap.TablesCommitted)
	}
	for _, tp := range snap.Tables {
		if tp.State != obs.TableStateCommitted {
			t.Errorf("table %s state %q, want committed", tp.Name, tp.State)
		}
		if tp.ExportedRows != tp.PlannedRows {
			t.Errorf("table %s exported %d of %d planned", tp.Name, tp.ExportedRows, tp.PlannedRows)
		}
	}
	if snap.WavesDone == 0 || snap.PeakHeapBytes == 0 {
		t.Errorf("waves=%d peak_heap=%d, want both > 0", snap.WavesDone, snap.PeakHeapBytes)
	}

	// The SSE tail saw the run's lifecycle: close the server (ending the
	// stream) and check coverage.
	srv.Close()
	select {
	case <-sseDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE reader did not finish after server close")
	}
	mu.Lock()
	counts := map[obs.EventType]int{}
	for _, ty := range sseTypes {
		counts[ty]++
	}
	mu.Unlock()
	if counts[obs.EventStageStart] == 0 || counts[obs.EventWaveDone] == 0 ||
		counts[obs.EventTableGenerated] != 5 || counts[obs.EventExportCommitted] != 5 {
		t.Fatalf("SSE coverage: %v", counts)
	}

	// The JSONL tee carries the same journal, one object per line.
	if err := reg.Events().TeeErr(); err != nil {
		t.Fatal(err)
	}
	teeLines := 0
	sc := bufio.NewScanner(bytes.NewReader(jsonl.Bytes()))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad tee line %q: %v", sc.Text(), err)
		}
		teeLines++
	}
	if teeLines == 0 {
		t.Fatal("JSONL tee is empty")
	}

	// trace.json: writes, re-parses, and covers spans + instants.
	tracePath := filepath.Join(dir, "trace.json")
	if err := reg.WriteTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	var complete, instants int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "i":
			instants++
		}
	}
	if complete == 0 || instants == 0 {
		t.Fatalf("trace has %d complete events and %d instants, want both > 0", complete, instants)
	}
}

// TestObservabilityByteNeutral runs the same streamed generation with the
// full observability layer on and fully off; the manifests' per-table
// content hashes must be identical.
func TestObservabilityByteNeutral(t *testing.T) {
	runOnce := func(telemetry bool) map[string]string {
		prob := buildSSBProblem(t, 0.1)
		dir := t.TempDir()
		opts := Options{Seed: 11, Parallelism: 2}
		ctx := context.Background()
		if telemetry {
			reg := obs.NewRegistry()
			ctx = obs.WithRegistry(ctx, reg)
			defer obs.StartSampler(reg, 10*time.Millisecond)()
			reg.Events().TeeTo(&bytes.Buffer{})
		}
		manifest := storage.NewManifest(dir, RunFingerprint(prob, opts))
		res, err := GenerateStreamCtx(ctx, prob, opts, StreamConfig{
			Sink: &storage.DirSink{Dir: dir}, Manifest: manifest,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Export.Tables == 0 {
			t.Fatal("nothing exported")
		}
		loaded, err := storage.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		hashes := map[string]string{}
		for _, name := range loaded.CommittedTables() {
			st, _ := loaded.Table(name)
			hashes[name] = st.Hash
		}
		return hashes
	}
	on := runOnce(true)
	off := runOnce(false)
	if len(on) != len(off) || len(on) == 0 {
		t.Fatalf("table sets differ: on=%d off=%d", len(on), len(off))
	}
	for name, h := range on {
		if off[name] != h {
			t.Errorf("table %s: hash %s with telemetry, %s without", name, off[name], h)
		}
	}
}
