package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// fakeClock is a deterministic journal clock: each call advances 1000ns.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

func TestJournalEmitAndSnapshot(t *testing.T) {
	j := NewJournal(8, fakeClock())
	j.Emit(Event{Type: EventStageStart, Stage: "build"})
	j.Emit(Event{Type: EventTableGenerated, Table: "part", Rows: 100})
	j.Emit(Event{Type: EventStageFinish, Stage: "build"})

	if j.Len() != 3 || j.Seq() != 3 {
		t.Fatalf("len/seq = %d/%d, want 3/3", j.Len(), j.Seq())
	}
	evs := j.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot len = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.TNS != int64(i+1)*1000 {
			t.Errorf("event %d has t_ns %d, want %d", i, ev.TNS, (i+1)*1000)
		}
	}
	if evs[1].Table != "part" || evs[1].Rows != 100 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
}

func TestJournalPresetTNS(t *testing.T) {
	// Fake-clock tests pre-stamp TNS; Emit must not overwrite it.
	j := NewJournal(8, fakeClock())
	j.Emit(Event{Type: EventWaveDone, TNS: 42})
	if got := j.Snapshot()[0].TNS; got != 42 {
		t.Fatalf("preset TNS overwritten: %d", got)
	}
}

func TestJournalRingBound(t *testing.T) {
	j := NewJournal(4, fakeClock())
	for i := 0; i < 10; i++ {
		j.Emit(Event{Type: EventWaveDone, Wave: i})
	}
	if j.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", j.Len())
	}
	evs := j.Snapshot()
	// Oldest retained first: waves 6,7,8,9 with seqs 7..10.
	for i, ev := range evs {
		if ev.Wave != 6+i || ev.Seq != int64(7+i) {
			t.Fatalf("evs[%d] = wave %d seq %d", i, ev.Wave, ev.Seq)
		}
	}
	if j.Seq() != 10 {
		t.Fatalf("seq = %d, want 10", j.Seq())
	}
}

func TestJournalTeeJSONL(t *testing.T) {
	j := NewJournal(8, fakeClock())
	var buf bytes.Buffer
	j.TeeTo(&buf)
	j.Emit(Event{Type: EventStageStart, Stage: "generate"})
	j.Emit(Event{Type: EventExportCommitted, Table: "part", Rows: 5, Bytes: 99})

	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 || lines[1].Bytes != 99 {
		t.Fatalf("tee lines = %+v", lines)
	}
	if err := j.TeeErr(); err != nil {
		t.Fatalf("tee err = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestJournalTeeErrorSticks(t *testing.T) {
	j := NewJournal(8, fakeClock())
	j.TeeTo(failWriter{})
	j.Emit(Event{Type: EventStageStart})
	if j.TeeErr() == nil {
		t.Fatal("tee error not recorded")
	}
	// Emission keeps working despite the dead tee.
	j.Emit(Event{Type: EventStageFinish})
	if j.Len() != 2 {
		t.Fatalf("len = %d after tee failure, want 2", j.Len())
	}
}

func TestJournalObserve(t *testing.T) {
	j := NewJournal(8, fakeClock())
	var seen []EventType
	remove := j.Observe(func(ev Event) { seen = append(seen, ev.Type) })
	j.Emit(Event{Type: EventStageStart})
	j.Emit(Event{Type: EventStageFinish})
	remove()
	remove() // idempotent
	j.Emit(Event{Type: EventWaveDone})
	if len(seen) != 2 || seen[0] != EventStageStart || seen[1] != EventStageFinish {
		t.Fatalf("observed = %v", seen)
	}
}

func TestJournalSubscribe(t *testing.T) {
	j := NewJournal(8, fakeClock())
	j.Emit(Event{Type: EventStageStart, Stage: "build"})

	backlog, ch, cancel := j.Subscribe(4)
	defer cancel()
	if len(backlog) != 1 || backlog[0].Stage != "build" {
		t.Fatalf("backlog = %+v", backlog)
	}
	j.Emit(Event{Type: EventStageFinish, Stage: "build"})
	ev := <-ch
	if ev.Type != EventStageFinish || ev.Seq != 2 {
		t.Fatalf("live event = %+v", ev)
	}
	// A gapless sequence: backlog's last seq + 1 == first live seq.
	if backlog[len(backlog)-1].Seq+1 != ev.Seq {
		t.Fatal("gap between backlog and live stream")
	}

	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	// Emitting after cancel must not panic (send on closed channel).
	j.Emit(Event{Type: EventWaveDone})
}

func TestJournalSubscriberDrops(t *testing.T) {
	j := NewJournal(64, fakeClock())
	_, _, cancel := j.Subscribe(2)
	defer cancel()
	for i := 0; i < 5; i++ {
		j.Emit(Event{Type: EventWaveDone, Wave: i})
	}
	if d := j.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.Emit(Event{Type: EventStageStart}) // must not panic
	if j.Len() != 0 || j.Seq() != 0 || j.Dropped() != 0 || j.Snapshot() != nil || j.TeeErr() != nil {
		t.Fatal("nil journal accessors must return zero values")
	}
	j.TeeTo(&bytes.Buffer{})
	j.Observe(func(Event) {})()
	_, _, cancel := j.Subscribe(1)
	cancel()

	var r *Registry
	if r.Events() != nil {
		t.Fatal("nil registry must yield a nil journal")
	}
	r.Events().Emit(Event{Type: EventStageStart}) // the full disabled chain
}

// TestJournalConcurrent hammers one journal from many goroutines; the -race
// CI step turns any unsynchronized access into a failure.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(128, fakeClock())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Emit(Event{Type: EventWaveDone, Wave: g*1000 + i})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _, cancel := j.Subscribe(4)
				j.Snapshot()
				j.Len()
				cancel()
			}
		}()
	}
	wg.Wait()
	if j.Seq() != 1600 {
		t.Fatalf("seq = %d, want 1600", j.Seq())
	}
}

// TestEventsDisabledAllocs extends the PR 4 contract to the journal: the
// telemetry-off emission chain is allocation-free.
func TestEventsDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		From(ctx).Events().Emit(Event{Type: EventWaveDone, Wave: 1, Units: 2})
	}); n != 0 {
		t.Errorf("disabled Emit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		From(ctx).Tracker().Sample()
	}); n != 0 {
		t.Errorf("disabled Tracker.Sample: %v allocs/op, want 0", n)
	}
}
