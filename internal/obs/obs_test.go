package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("level")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3 (last write wins)", got)
	}
	h := r.Histogram("v_ns")
	for _, v := range []int64{-1, 0, 1, 2, 3, 4, 1 << 40} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("hist count = %d, want 7", got)
	}
	if got := h.Sum(); got != -1+0+1+2+3+4+(1<<40) {
		t.Fatalf("hist sum = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b")
	// One sample per interesting bucket: ≤0, [1,1], [2,3], [4,7], big.
	for _, v := range []int64{0, 1, 3, 7, 1 << 62} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["b"]
	want := []Bucket{{0, 1}, {1, 1}, {3, 1}, {7, 1}, {1<<63 - 1, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range snap.Buckets {
		if b != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestLabel(t *testing.T) {
	want := `x_total{kind="resize"}`
	if got := label("x_total", "kind", "resize"); got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	r := NewRegistry()
	if r.CounterL("x_total", "kind", "resize") != r.Counter(want) {
		t.Fatal("CounterL must key its counter by the labeled name")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.CounterL("a", "k", "v").Add(2)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(3)
	tm := r.Histogram("h").Start()
	if d := tm.Stop(); d != 0 {
		t.Fatalf("zero Timer Stop = %v, want 0", d)
	}
	sp := r.StartSpan("root")
	sp.Child("c").End()
	sp.End()
	if sp.Name() != "" {
		t.Fatal("nil span must have empty name")
	}
	ctx := context.Background()
	if ContextWith(ctx, nil) != ctx {
		t.Fatal("ContextWith(nil) must return ctx unchanged")
	}
	if ChildOf(ctx, "x") != nil {
		t.Fatal("ChildOf on a bare context must be nil")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestWithRegistry: the registry rides the context, so two runs in one
// process each find their own, and a context without one reports nil.
func TestWithRegistry(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("a bare context must carry no registry")
	}
	if WithRegistry(ctx, nil) != ctx {
		t.Fatal("WithRegistry(nil) must return ctx unchanged")
	}
	r1, r2 := NewRegistry(), NewRegistry()
	c1, c2 := WithRegistry(ctx, r1), WithRegistry(ctx, r2)
	if From(c1) != r1 || From(c2) != r2 {
		t.Fatal("each context must carry its own registry")
	}
	if From(ContextWith(c1, r2.StartSpan("x"))) != r1 {
		t.Fatal("a span on the context must not change its registry")
	}
	if From(WithRegistry(c1, r2)) != r2 {
		t.Fatal("the innermost registry must win")
	}
}

// TestAllocsDisabled pins the tentpole contract: with no registry enabled,
// every instrumentation idiom used by the pipeline is allocation-free.
func TestAllocsDisabled(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(){
		"counter":   func() { From(ctx).Counter("c_total").Inc() },
		"gauge":     func() { From(ctx).Gauge("g").Set(1) },
		"timer":     func() { From(ctx).Histogram("h_ns").Start().Stop() },
		"span":      func() { s := From(ctx).StartSpan("x"); s.Child("y").End(); s.End() },
		"span-ctx":  func() { _ = ContextWith(ctx, From(ctx).StartSpan("x")) },
		"reg-ctx":   func() { _ = WithRegistry(ctx, From(ctx)) },
		"child-ctx": func() { ChildOf(ctx, "x").End() },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op with telemetry disabled, want 0", name, n)
		}
	}
}

// TestAllocsEnabled bounds the enabled hot path: recording into resolved
// handles stays allocation-free; only span creation allocates (bounded).
func TestAllocsEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_ns")
	if n := testing.AllocsPerRun(200, func() { c.Inc() }); n != 0 {
		t.Errorf("counter Inc: %v allocs/op enabled, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Observe(7) }); n != 0 {
		t.Errorf("histogram Observe: %v allocs/op enabled, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Start().Stop() }); n != 0 {
		t.Errorf("timer: %v allocs/op enabled, want 0", n)
	}
	parent := r.StartSpan("root")
	if n := testing.AllocsPerRun(200, func() { parent.Child("c").End() }); n > 2 {
		t.Errorf("span child: %v allocs/op enabled, want <= 2", n)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines — the
// -race CI step turns any unsynchronized access into a failure.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 500
	root := r.StartSpan("root")
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_ns")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.CounterL("labeled_total", "w", fmt.Sprint(w%4)).Inc()
				h.Observe(int64(i))
				r.Gauge("level").Set(int64(i))
				sp := root.Child("child")
				sp.End()
				if i%100 == 0 {
					r.Snapshot() // snapshots race with writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Fatalf("shared_total = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_ns").Count(); got != workers*perWorker {
		t.Fatalf("shared_ns count = %d, want %d", got, workers*perWorker)
	}
	var labeled int64
	for w := 0; w < 4; w++ {
		labeled += r.CounterL("labeled_total", "w", fmt.Sprint(w)).Value()
	}
	if labeled != workers*perWorker {
		t.Fatalf("labeled sum = %d, want %d", labeled, workers*perWorker)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != workers*perWorker {
		t.Fatalf("span trace: %d roots, %d children", len(snap.Spans), len(snap.Spans[0].Children))
	}
}

func TestSpanSnapshot(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("build")
	child := root.Child("annotate")
	time.Sleep(time.Millisecond)
	child.End()
	child.End() // idempotent: second End keeps the first timestamp
	open := root.Child("open")
	_ = open // left open: snapshot must close it at "now"
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "build" {
		t.Fatalf("roots = %+v", snap.Spans)
	}
	b := snap.Spans[0]
	a := b.Find("annotate")
	if a == nil {
		t.Fatal("annotate child missing")
	}
	if a.StartNS < b.StartNS || a.EndNS <= a.StartNS {
		t.Fatalf("child not within parent: %+v in %+v", a, b)
	}
	o := b.Find("open")
	if o == nil || o.EndNS < o.StartNS || o.EndNS > snap.WallNS {
		t.Fatalf("open span not closed at snapshot: %+v (wall %d)", o, snap.WallNS)
	}
	if b.Find("missing") != nil {
		t.Fatal("Find of a missing child must be nil")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.StartSpan("s").End()
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"a_total": 1`, `"name": "s"`, `"wall_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("deg_total").Add(3)
	r.CounterL("deg_kinds_total", "kind", "resize").Add(2)
	r.CounterL("deg_kinds_total", "kind", "restart").Add(1)
	r.Gauge("par").Set(8)
	h := r.Histogram("lat_ns")
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mirage_deg_total counter",
		"mirage_deg_total 3",
		`mirage_deg_kinds_total{kind="resize"} 2`,
		`mirage_deg_kinds_total{kind="restart"} 1`,
		"# TYPE mirage_par gauge",
		"mirage_par 8",
		"# TYPE mirage_lat_ns histogram",
		`mirage_lat_ns_bucket{le="1"} 1`,
		`mirage_lat_ns_bucket{le="3"} 3`, // cumulative
		`mirage_lat_ns_bucket{le="+Inf"} 3`,
		"mirage_lat_ns_sum 7",
		"mirage_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Format sanity: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) != 2 || !strings.HasPrefix(f[0], "mirage_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// Deterministic output.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("prometheus output is not deterministic")
	}
}

func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	dir := t.TempDir()
	jf := dir + "/run.json"
	if err := r.WriteFile(jf, "json"); err != nil {
		t.Fatal(err)
	}
	pf := dir + "/run.prom"
	if err := r.WriteFile(pf, "prom"); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(dir+"/x", "xml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: 1<<63 - 1}
	for b, want := range cases {
		if got := bucketBound(b); got != want {
			t.Errorf("bucketBound(%d) = %d, want %d", b, got, want)
		}
	}
}
