package main

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/quicknn/quicknn/internal/obs"
)

// now is the benchmark's clock: seconds on the host's monotonic clock,
// the same source the serving engine times itself with.
func now() float64 { return obs.MonotonicSeconds() }

// runStats is what one closed-loop run measured.
type runStats struct {
	setup   []float64 // seconds per fresh set-up
	frame   []float64 // seconds per step: search phase plus ingest
	ingest  []float64 // seconds per frame ingest
	latency []float64 // seconds per search request
	// searchSec is the summed search-phase wall time; points the query
	// points those phases answered.
	searchSec float64
	points    int64
	steps     int
	memPeakMB float64
	recall    float64
	recallN   int
	// Go runtime counters of the serving process over the timed loop.
	allocBytes, gcCycles, gcPauseSec float64
}

// metrics returns the end-to-end metrics of the run.
func (r runStats) metrics() map[string]metric {
	ms := func(xs []float64, q float64) metric { return metric{quantile(xs, q) * 1000, "ms"} }
	return map[string]metric{
		"setup_s":        {median(r.setup), "s"},
		"frames_per_s":   {float64(r.steps) / sum(r.frame), "1/s"},
		"frame_ms_p50":   ms(r.frame, 0.5),
		"frame_ms_p90":   ms(r.frame, 0.9),
		"ingest_ms_p50":  ms(r.ingest, 0.5),
		"ingest_ms_p90":  ms(r.ingest, 0.9),
		"latency_ms_p50": ms(r.latency, 0.5),
		"latency_ms_p99": ms(r.latency, 0.99),
		"queries_per_s":  {float64(r.points) / r.searchSec, "1/s"},
		"recall_at_8":    {r.recall, "ratio"},
		"mem_peak_mb":    {r.memPeakMB, "MB"},
	}
}

// runRounds plays whole rounds. A round visits every drive: start(d)
// sets up a fresh engine on the drive's first frame, then step plays the
// drive's p.period steps. It plays exactly rounds rounds when rounds > 0,
// otherwise until the first round boundary at least seconds after the
// start.
func runRounds(p *plan, rounds int, seconds float64, start func(d int) error, step func(s stepID) error) error {
	begin := now()
	seq := 0
	for round := 0; ; round++ {
		if rounds > 0 && round == rounds || rounds <= 0 && round > 0 && now()-begin >= seconds {
			return nil
		}
		for d := range p.drives {
			if err := start(d); err != nil {
				return err
			}
			for j := 1; j <= p.period; j++ {
				seq++
				if err := step(stepID{round: round, drive: d, j: j, seq: seq}); err != nil {
					return err
				}
			}
		}
	}
}

// searchPhase issues the step's requests from p.w.callers concurrent
// closed-loop callers, caller c taking requests c, c+callers, …, and
// returns the phase's wall time.
func searchPhase(p *plan, request func(r int)) float64 {
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < p.w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < p.w.reqsPerStep; r += p.w.callers {
				request(r)
			}
		}(c)
	}
	wg.Wait()
	return now() - start
}

// memCounters reads the process's cumulative allocation and GC counters.
func memCounters() (allocBytes, gcCycles, pauseSec float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc), float64(ms.NumGC), float64(ms.PauseTotalNs) / 1e9
}

// expectEpoch checks the epoch that answered a request.
func expectEpoch(got, want uint64) error {
	if got != want {
		return wrongf("answered by epoch %d, want %d", got, want)
	}
	return nil
}

// opName labels an operation of a step in failure notes.
func opName(s stepID, what string) string {
	return fmt.Sprintf("drive %d step %d %s", s.drive, s.j, what)
}
