package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// RunReport is the serializable snapshot of one run's telemetry: every
// counter, gauge and histogram plus the span trace. It is what
// `miragegen -metrics out.json` writes and what the golden tests assert
// against.
type RunReport struct {
	StartedAt time.Time `json:"started_at"`
	// WallNS is the registry's age at snapshot time; every span offset lies
	// in [0, WallNS].
	WallNS     int64                   `json:"wall_ns"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Spans      []*SpanNode             `json:"spans,omitempty"`
	// Events is the journal ring's retained events, oldest first (absent when
	// the run emitted none).
	Events []Event `json:"events,omitempty"`
}

// HistSnapshot is one histogram's state: non-cumulative bucket counts with
// inclusive upper bounds (sparse — empty buckets are omitted).
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: Count samples with value ≤ Le (and above
// the previous bucket's bound).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// SpanNode is one span of the run trace with nanosecond offsets from the
// run start. EndNS of a span still open at snapshot time is the snapshot
// offset itself, so StartNS ≤ EndNS always holds.
type SpanNode struct {
	Name     string      `json:"name"`
	StartNS  int64       `json:"start_ns"`
	EndNS    int64       `json:"end_ns"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Find returns the first direct child whose name is exactly name, or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// bucketBound returns the inclusive upper bound of histogram bucket b.
func bucketBound(b int) int64 {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<b - 1
}

// Snapshot captures the registry's current state. It is safe to call while
// the run is still recording (metrics are read atomically; open spans are
// reported as ending now). A nil registry yields a nil report.
func (r *Registry) Snapshot() *RunReport {
	if r == nil {
		return nil
	}
	now := r.sinceNS()
	rep := &RunReport{StartedAt: r.start, WallNS: now}

	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	roots := append([]*Span(nil), r.roots...)
	journal := r.journal // read, not lazily created: no events means no journal
	r.mu.Unlock()

	if len(counters) > 0 {
		rep.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			rep.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		rep.Gauges = make(map[string]int64, len(gauges))
		for k, g := range gauges {
			rep.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		rep.Histograms = make(map[string]HistSnapshot, len(hists))
		for k, h := range hists {
			snap := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
			for b := 0; b < histBuckets; b++ {
				if n := h.buckets[b].Load(); n > 0 {
					snap.Buckets = append(snap.Buckets, Bucket{Le: bucketBound(b), Count: n})
				}
			}
			rep.Histograms[k] = snap
		}
	}
	for _, s := range roots {
		rep.Spans = append(rep.Spans, snapshotSpan(s, now))
	}
	rep.Events = journal.Snapshot()
	return rep
}

func snapshotSpan(s *Span, now int64) *SpanNode {
	end := s.endNS.Load()
	if end == 0 {
		end = now
	}
	n := &SpanNode{Name: s.name, StartNS: s.startNS, EndNS: end}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, snapshotSpan(c, now))
	}
	return n
}

// WriteJSON writes the run report as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the run report to path in the given format: "json"
// (indented RunReport) or "prom"/"prometheus" (text exposition format).
func (r *Registry) WriteFile(path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "", "json":
		err = r.WriteJSON(f)
	case "prom", "prometheus":
		err = r.WritePrometheus(f)
	default:
		err = fmt.Errorf("obs: unknown metrics format %q (want json or prom)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// promPrefix namespaces every exported metric.
const promPrefix = "mirage_"

// WritePrometheus writes every counter, gauge and histogram in Prometheus
// text exposition format (spans are a trace, not a metric, and are JSON-only).
// Labeled keys (CounterL, HistogramL) are already in Prometheus label form,
// so a key like `parallel_items_total{stage="keygen/wave"}` exports verbatim
// under the mirage_ prefix. Output order is deterministic: metric families sorted by
// name, series sorted by key.
func (r *Registry) WritePrometheus(w io.Writer) error {
	rep := r.Snapshot()
	if rep == nil {
		return nil
	}
	if err := writePromFamily(w, rep.Counters, "counter"); err != nil {
		return err
	}
	if err := writePromFamily(w, rep.Gauges, "gauge"); err != nil {
		return err
	}
	return writePromHistograms(w, rep.Histograms)
}

// splitKey separates a metric key into base name and label block ("" when
// unlabeled; otherwise the braces inclusive).
func splitKey(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

func writePromFamily(w io.Writer, series map[string]int64, typ string) error {
	byBase := make(map[string][]string)
	for key := range series {
		base, _ := splitKey(key)
		byBase[base] = append(byBase[base], key)
	}
	for _, base := range sortedKeys(byBase) {
		if _, err := fmt.Fprintf(w, "# TYPE %s%s %s\n", promPrefix, base, typ); err != nil {
			return err
		}
		keys := byBase[base]
		sort.Strings(keys)
		for _, key := range keys {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", promPrefix, key, series[key]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistograms(w io.Writer, hists map[string]HistSnapshot) error {
	byBase := make(map[string][]string)
	for key := range hists {
		base, _ := splitKey(key)
		byBase[base] = append(byBase[base], key)
	}
	for _, base := range sortedKeys(byBase) {
		if _, err := fmt.Fprintf(w, "# TYPE %s%s histogram\n", promPrefix, base); err != nil {
			return err
		}
		keys := byBase[base]
		sort.Strings(keys)
		for _, key := range keys {
			h := hists[key]
			_, labels := splitKey(key)
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s%s_bucket%s %d\n",
					promPrefix, base, promLabels(labels, fmt.Sprintf(`le="%d"`, b.Le)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s%s_bucket%s %d\n",
				promPrefix, base, promLabels(labels, `le="+Inf"`), h.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s%s_sum%s %d\n", promPrefix, base, labels, h.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s%s_count%s %d\n", promPrefix, base, labels, h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels merges an existing label block (possibly "") with one extra
// label, yielding a well-formed block.
func promLabels(existing, extra string) string {
	if existing == "" {
		return "{" + extra + "}"
	}
	return existing[:len(existing)-1] + "," + extra + "}"
}
