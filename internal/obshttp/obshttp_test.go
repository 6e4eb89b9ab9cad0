package obshttp

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dbhammer/mirage/internal/obs"
)

func TestMetricsEndpoint(t *testing.T) {
	off := httptest.NewServer(Handler(nil))
	defer off.Close()

	// Disabled: /metrics must answer 503, not lie with an empty exposition.
	resp, err := http.Get(off.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled /metrics = %d, want 503", resp.StatusCode)
	}

	reg := obs.NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	reg.Counter("live_total").Add(42)
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled /metrics = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "mirage_live_total 42") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, body %.80s", resp.StatusCode, body)
	}
}

func TestServeShutdown(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cmdline = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener must actually be released.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
	// Close after Shutdown is a harmless no-op; so are nil-receiver calls.
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close after Shutdown: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Shutdown(ctx) != nil || nilSrv.Close() != nil {
		t.Fatal("nil Server methods must no-op")
	}
}

func TestProgressEndpoint(t *testing.T) {
	off := httptest.NewServer(Handler(nil))
	defer off.Close()

	// No registry → 503.
	resp, err := http.Get(off.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-registry /progress = %d, want 503", resp.StatusCode)
	}

	reg := obs.NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	// Registry but no tracker → still 503.
	resp, err = http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-tracker /progress = %d, want 503", resp.StatusCode)
	}

	tr := obs.NewTracker(reg, []obs.TableInfo{{Name: "part", Rows: 100}, {Name: "lineitem", Rows: 400}})
	reg.SetTracker(tr)
	reg.Events().Emit(obs.Event{Type: obs.EventStageStart, Stage: "generate"})
	reg.Events().Emit(obs.Event{Type: obs.EventTableGenerated, Table: "part", Rows: 100})

	resp, err = http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap obs.ProgressSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.PlannedRows != 500 || snap.DoneRows != 100 || snap.Stage != "generate" {
		t.Fatalf("snapshot = planned %d done %d stage %q, want 500/100/generate",
			snap.PlannedRows, snap.DoneRows, snap.Stage)
	}
	if len(snap.Tables) != 2 || snap.Tables[0].State != obs.TableStateGenerated {
		t.Fatalf("tables = %+v", snap.Tables)
	}
}

func TestEventsSSE(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	j := reg.Events()
	j.Emit(obs.Event{Type: obs.EventStageStart, Stage: "build"})
	j.Emit(obs.Event{Type: obs.EventStageFinish, Stage: "build"})

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	readEvent := func(r *bufio.Reader) obs.Event {
		t.Helper()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("read SSE frame: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			if line == "" {
				continue
			}
			payload, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				t.Fatalf("unexpected SSE line %q", line)
			}
			var ev obs.Event
			if err := json.Unmarshal([]byte(payload), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", payload, err)
			}
			return ev
		}
	}

	br := bufio.NewReader(resp.Body)
	// Backlog first, in order.
	if ev := readEvent(br); ev.Type != obs.EventStageStart || ev.Seq != 1 {
		t.Fatalf("backlog[0] = %+v", ev)
	}
	if ev := readEvent(br); ev.Type != obs.EventStageFinish || ev.Seq != 2 {
		t.Fatalf("backlog[1] = %+v", ev)
	}
	// Then live events, gapless.
	j.Emit(obs.Event{Type: obs.EventWaveDone, Wave: 3, Units: 7})
	if ev := readEvent(br); ev.Type != obs.EventWaveDone || ev.Seq != 3 || ev.Units != 7 {
		t.Fatalf("live event = %+v", ev)
	}
}
