package mirage

// Smoke tests for the bench-harness helpers: the keygen regression guard
// (obs_bench_test.go) silently disarms itself when recordedKeygenMS returns
// 0, so its parsing of the trajectory file must be pinned — a field rename
// in cmd/benchjson would otherwise turn the guard off without failing
// anything.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// recordedKeygenMS reads the keygen_ms metric from BENCH_engine.json's
// current StageBreakdown entry, or 0 if the file or metric is absent (fresh
// checkout, re-anchored trajectory).
func recordedKeygenMS() float64 {
	return recordedKeygenMSAt("BENCH_engine.json")
}

// recordedKeygenMSAt is recordedKeygenMS against an explicit trajectory
// path, so the parsing contract is testable without the checked-in file.
func recordedKeygenMSAt(path string) float64 {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var file struct {
		Current *struct {
			Benchmarks []struct {
				Name    string             `json:"name"`
				Metrics map[string]float64 `json:"metrics"`
			} `json:"benchmarks"`
		} `json:"current"`
	}
	if json.Unmarshal(blob, &file) != nil || file.Current == nil {
		return 0
	}
	for _, bm := range file.Current.Benchmarks {
		if bm.Name == "StageBreakdown" {
			return bm.Metrics["keygen_ms"]
		}
	}
	return 0
}

func TestRecordedKeygenMS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_engine.json")

	if got := recordedKeygenMSAt(path); got != 0 {
		t.Fatalf("missing file: got %v, want 0", got)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recordedKeygenMSAt(path); got != 0 {
		t.Fatalf("malformed file: got %v, want 0", got)
	}

	blob := `{
		"current": {"benchmarks": [
			{"name": "Selection", "metrics": {"ns_per_op": 12}},
			{"name": "StageBreakdown", "metrics": {"keygen_ms": 37.5, "nonkey_ms": 9}}
		]},
		"baseline": {"benchmarks": [
			{"name": "StageBreakdown", "metrics": {"keygen_ms": 165}}
		]}
	}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recordedKeygenMSAt(path); got != 37.5 {
		t.Fatalf("keygen_ms = %v, want 37.5 (current entry, not baseline)", got)
	}

	if err := os.WriteFile(path, []byte(`{"baseline": null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recordedKeygenMSAt(path); got != 0 {
		t.Fatalf("no current snapshot: got %v, want 0", got)
	}
}
