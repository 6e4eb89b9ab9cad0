package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// The event journal is the pipeline's structured lifecycle log: where
// counters say *how much* happened, events say *what* happened and *when* —
// a stage opened, a keygen wave committed, a table's export went pending and
// then durable, a constraint degraded, a sink write was retried, a row set
// spilled. Every event is a small typed record stamped with the registry's
// monotone clock, kept in a bounded ring (old events are overwritten, never
// block the pipeline), optionally teed to a JSONL file, and fanned out to
// subscribers (the /events SSE endpoint) without ever blocking the emitter.
//
// The journal lives under the same contract as the rest of internal/obs:
// with telemetry disabled, obs.From(ctx).Events().Emit(...) is a nil-receiver
// chain costing one context lookup and zero allocations.

// EventType enumerates the journal's lifecycle events. The catalog (names,
// fields, emitting sites) is documented in DESIGN.md §14.
type EventType string

const (
	// EventStageStart / EventStageFinish bracket a pipeline stage (Stage:
	// "build", "generate", "generate/nonkey", "generate/keygen",
	// "generate/export", "validate").
	EventStageStart  EventType = "stage_start"
	EventStageFinish EventType = "stage_finish"
	// EventWaveDone marks one keygen dependency wave's FK columns committed
	// (Wave: 0-based index, Units: FK units in the wave).
	EventWaveDone EventType = "wave_done"
	// EventTableGenerated marks one table's non-key generation complete
	// (Table, Rows).
	EventTableGenerated EventType = "table_generated"
	// EventExportPending / EventExportCommitted / EventExportSkipped track a
	// table through the streaming exporter: pending before the first byte,
	// committed after the sink's durable Commit (Rows, Bytes), skipped when
	// the run manifest already proves it committed (resume).
	EventExportPending   EventType = "export_pending"
	EventExportCommitted EventType = "export_committed"
	EventExportSkipped   EventType = "export_skipped"
	// EventExportError records a failed table export (Table, Err); the run
	// is unwinding when it appears.
	EventExportError EventType = "export_error"
	// EventDegradation mirrors one keygen degradation-ledger entry (Unit,
	// Kind: resize/restarts, Count).
	EventDegradation EventType = "degradation"
	// EventSinkRetry records one transient sink failure being retried
	// (Stage: sink op, Count: attempt ordinal, Err); EventSinkGiveup records
	// the retry budget exhausting.
	EventSinkRetry  EventType = "sink_retry"
	EventSinkGiveup EventType = "sink_giveup"
	// EventSpill records a windowed row set spilling to disk (Table: spill
	// file path, Rows: rows spilled so far).
	EventSpill EventType = "spill"
	// EventWindowFallback records a whole-column materialization the windowed
	// engine had to perform for a non-windowable view shape (Table, Kind:
	// column name).
	EventWindowFallback EventType = "window_fallback"
)

// Event is one journal record. Unused fields are omitted from JSON; TNS is
// the registry-relative monotone timestamp (nanoseconds since NewRegistry),
// the same clock base as span offsets, so events and spans interleave on one
// timeline (the Perfetto exporter relies on this).
type Event struct {
	Seq   int64     `json:"seq"`
	TNS   int64     `json:"t_ns"`
	Type  EventType `json:"type"`
	Stage string    `json:"stage,omitempty"`
	Table string    `json:"table,omitempty"`
	Unit  string    `json:"unit,omitempty"`
	Kind  string    `json:"kind,omitempty"`
	Wave  int       `json:"wave,omitempty"`
	Units int       `json:"units,omitempty"`
	Count int64     `json:"count,omitempty"`
	Rows  int64     `json:"rows,omitempty"`
	Bytes int64     `json:"bytes,omitempty"`
	Err   string    `json:"err,omitempty"`
}

// DefaultJournalCap bounds the in-memory ring: enough for every lifecycle
// event of a paper-scale run (stages + tables + waves + degradations), small
// enough to be irrelevant next to one column's memory.
const DefaultJournalCap = 4096

// Journal is a bounded, concurrency-safe event bus. All methods tolerate a
// nil receiver (no-ops / zero values), so emission sites need no
// enabled-path branching. Emission never blocks: the ring overwrites its
// oldest entry when full, slow subscribers drop events (counted), and the
// JSONL tee swallows its writer's first error into TeeErr instead of
// failing the pipeline.
type Journal struct {
	now func() int64

	mu       sync.Mutex
	buf      []Event // ring storage, up to cap entries
	head     int     // index of the oldest entry once the ring wrapped
	wrapped  bool
	cap      int
	seq      int64
	obs      []func(Event) // synchronous observers (the progress tracker)
	subs     map[int]chan Event
	nextSub  int
	dropped  int64 // events dropped on full subscriber channels
	tee      *json.Encoder
	teeErr   error
	teeFlush func() error
}

// NewJournal builds a journal with the given ring capacity (<=0 selects
// DefaultJournalCap) and clock. The clock returns monotone nanoseconds and
// must be safe for concurrent use; Registry.Events wires the registry's
// sinceNS so event timestamps share the span clock.
func NewJournal(capacity int, now func() int64) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{now: now, cap: capacity, subs: make(map[int]chan Event)}
}

// Events returns the registry's event journal, created on first use. A nil
// registry returns a nil journal, whose methods are all no-ops — the
// telemetry-off emission chain stays allocation-free.
func (r *Registry) Events() *Journal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.journal == nil {
		r.journal = NewJournal(DefaultJournalCap, r.sinceNS)
	}
	j := r.journal
	r.mu.Unlock()
	return j
}

// Emit records one event: stamps it (sequence number, clock — unless the
// caller pre-set TNS, which the fake-clock tests do), appends it to the
// ring, tees it to the JSONL writer, hands it to synchronous observers, and
// offers it to every subscriber without blocking. Safe for concurrent use;
// a nil journal ignores the event.
func (j *Journal) Emit(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if ev.TNS == 0 && j.now != nil {
		ev.TNS = j.now()
	}
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.head] = ev
		j.head++
		if j.head == j.cap {
			j.head = 0
		}
		j.wrapped = true
	}
	if j.tee != nil && j.teeErr == nil {
		// One JSON object per line; the encoder appends the newline.
		j.teeErr = j.tee.Encode(ev)
	}
	for _, fn := range j.obs {
		fn(ev)
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.dropped++
		}
	}
	j.mu.Unlock()
}

// Len returns the number of events currently held in the ring.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Seq returns the sequence number of the latest event (0 when none).
func (j *Journal) Seq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns the number of events dropped on full subscriber channels.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Snapshot copies the ring's events in emission order (oldest first). When
// the ring has wrapped, the result starts at the oldest retained event.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() []Event {
	if len(j.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(j.buf))
	if j.wrapped {
		out = append(out, j.buf[j.head:]...)
		out = append(out, j.buf[:j.head]...)
	} else {
		out = append(out, j.buf...)
	}
	return out
}

// TeeTo mirrors every subsequent event to w as one JSON object per line
// (JSONL). The first write error sticks in TeeErr and stops further writes;
// the pipeline itself never fails on a tee error. Passing nil detaches the
// tee.
func (j *Journal) TeeTo(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if w == nil {
		j.tee = nil
	} else {
		j.tee = json.NewEncoder(w)
	}
	j.teeErr = nil
	j.mu.Unlock()
}

// TeeErr returns the JSONL tee's sticky first error, if any.
func (j *Journal) TeeErr() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.teeErr
}

// Observe registers a synchronous observer called for every subsequent
// event, in emission order, under the journal's lock — observers must be
// fast and must not call back into the journal. It returns the function
// that unregisters the observer. The progress tracker is the intended
// consumer; asynchronous consumers use Subscribe.
func (j *Journal) Observe(fn func(Event)) (remove func()) {
	if j == nil {
		return func() {}
	}
	j.mu.Lock()
	j.obs = append(j.obs, fn)
	idx := len(j.obs) - 1
	j.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			j.mu.Lock()
			// Nil out rather than reslice so other observers keep their slots.
			if idx < len(j.obs) {
				j.obs[idx] = func(Event) {}
			}
			j.mu.Unlock()
		})
	}
}

// Subscribe atomically captures the ring's current contents and registers a
// live channel for everything after: the backlog plus the channel's events
// form one gapless, duplicate-free sequence (the /events SSE endpoint
// relies on this). The channel holds buffer events (<=0 selects 256);
// events that arrive while it is full are dropped and counted in Dropped.
// cancel unregisters and closes the channel; it is idempotent and safe to
// call while events are being emitted.
func (j *Journal) Subscribe(buffer int) (backlog []Event, ch <-chan Event, cancel func()) {
	if j == nil {
		return nil, nil, func() {}
	}
	if buffer <= 0 {
		buffer = 256
	}
	c := make(chan Event, buffer)
	j.mu.Lock()
	backlog = j.snapshotLocked()
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	j.mu.Unlock()
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			j.mu.Lock()
			delete(j.subs, id)
			close(c) // safe: sends only happen under the same lock
			j.mu.Unlock()
		})
	}
	return backlog, c, cancel
}
