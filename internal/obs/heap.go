package obs

import (
	"runtime"
	"time"
)

// SampleHeap reads the runtime's heap occupancy and records it in reg
// (nil records nothing): heap_alloc_bytes holds the latest sample,
// peak_heap_bytes the high-water mark across all samples of the run. The
// generation pipeline samples at stage boundaries (and the out-of-core
// exporter per streamed table); the /progress snapshot and miragegen's run
// summary read them. Returns the current HeapAlloc so callers can
// track their own peaks without a second ReadMemStats.
//
// ReadMemStats is a brief stop-the-world; sample per stage or per table,
// never per item.
func SampleHeap(reg *Registry) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	reg.Gauge("peak_heap_bytes").Max(int64(ms.HeapAlloc))
	return ms.HeapAlloc
}

// StartSampler starts a goroutine that samples the heap every interval
// (<=0 selects 250ms) into reg and feeds reg's progress tracker a
// rate sample, so the peak-heap watermark and rows/sec estimate stay live
// between stage boundaries. Returns the stop function; stop is idempotent
// and returns only after the goroutine has exited.
func StartSampler(reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				SampleHeap(reg)
				reg.Tracker().Sample()
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(quit)
			<-done
		}
	}
}
