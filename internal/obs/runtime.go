package obs

import (
	"runtime"
	"time"
)

// This file is the Go runtime health collector: a handful of gauges
// (heap, GC, goroutines) that give tail-latency investigations their
// most common missing variable — was the spike ours, or was it a GC
// pause / heap growth episode? The flight recorder answers "which phase
// of which request"; these gauges answer "what was the runtime doing at
// the time". quicknnd samples them at every /v1/metrics scrape and can
// additionally sample on a fixed period (-runtime-sample).

// SampleRuntime reads the Go runtime's memory and scheduler statistics
// and publishes them as quicknn_go_* gauges. Call it at scrape time or
// from StartRuntimeSampler. Note runtime.ReadMemStats briefly
// stops the world; keep sampling periods well above the microsecond
// scale of the query path.
//
//quicknnlint:reporting runtime health gauges are report values by definition
func SampleRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("quicknn_go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).").With().Set(float64(ms.HeapAlloc))
	reg.Gauge("quicknn_go_heap_objects",
		"Number of allocated heap objects.").With().Set(float64(ms.HeapObjects))
	reg.Gauge("quicknn_go_next_gc_bytes",
		"Heap size target of the next GC cycle.").With().Set(float64(ms.NextGC))
	reg.Gauge("quicknn_go_gc_total",
		"Completed GC cycles since process start.").With().Set(float64(ms.NumGC))
	reg.Gauge("quicknn_go_gc_pause_total_seconds",
		"Cumulative GC stop-the-world pause time.").With().Set(float64(ms.PauseTotalNs) / 1e9)
	reg.Gauge("quicknn_go_goroutines",
		"Current number of goroutines.").With().Set(float64(runtime.NumGoroutine()))
}

// StartRuntimeSampler samples the runtime gauges into reg every period
// until the returned stop function is called. The stop function blocks
// until the sampler goroutine has exited and is safe to call once.
// Periods below 100ms are clamped up to keep ReadMemStats's
// stop-the-world cost negligible.
func StartRuntimeSampler(reg *Registry, period time.Duration) (stop func()) {
	if reg == nil {
		return func() {}
	}
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	ticker := newSamplerTicker(period)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				SampleRuntime(reg)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
