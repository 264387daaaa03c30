package serve

import (
	"context"
	"errors"
	"fmt"

	"github.com/quicknn/quicknn/internal/obs"
)

// This file is the serving engine's side of the flight recorder
// (docs/observability.md): every completed request is assembled into one
// obs.FlightRecord — phase breakdown (queue wait → batch window → worker
// pickup → execution), epoch generation, and the kdtree work counters
// summed over the request's queries — and recorded into the
// sink's ring. The adaptive tail sampler then decides whether the
// request was slow enough to promote: promoted requests additionally
// land in the engine-owned slowlog ring and, when a tracer is attached,
// become per-phase Perfetto spans on the serve/slow tracks.
//
// recordFlight runs inside the zero-alloc request-completion path and is
// held to the recordpath lint rule; promoteSlow runs for roughly the top
// (1 - TailQuantile) fraction of requests and is allowed to allocate.

// recordFlight assembles and records the finished request's flight
// record, then feeds the tail sampler. Called exactly once per request
// (by finish) when recording is enabled. Allocation-free.
//
//quicknnlint:recordpath
func (e *Engine) recordFlight(r *request, now, total float64) {
	rec := obs.FlightRecord{
		ID:             r.id,
		Epoch:          r.epochID,
		Queries:        uint32(len(r.queries)),
		Batch:          uint32(r.batchPoints),
		Mode:           uint8(r.opts.Mode),
		Degrade:        r.degradeLevel,
		K:              uint16(r.opts.K),
		Submit:         r.submitted,
		Queue:          clampSec(r.pickedUp - r.submitted),
		Window:         clampSec(r.dispatched - r.pickedUp),
		Total:          total,
		TraversalSteps: uint32(r.work.TraversalSteps),
		BucketsVisited: uint32(r.work.BucketsVisited),
		PointsScanned:  uint32(r.work.PointsScanned),
		CandInserts:    uint32(r.work.CandInserts),
		TraceHi:        r.traceHi,
		TraceLo:        r.traceLo,
	}
	if r.execStart > 0 {
		rec.Pickup = clampSec(r.execStart - r.dispatched)
		rec.Exec = clampSec(now - r.execStart)
	}
	switch err := r.err; {
	case err == nil:
		rec.Outcome = obs.OutcomeOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rec.Outcome = obs.OutcomeCanceled
	default:
		rec.Outcome = obs.OutcomeError
	}
	e.flight.Record(rec)
	if e.tail != nil {
		if e.tail.Observe(total) {
			e.promoteSlow(rec)
		}
		e.tailWin.Observe(now, total)
		e.m.tailEstimate.Set(e.tail.Estimate())
	}
}

// clampSec floors a phase duration at zero: a request that never reached
// a phase carries zero stamps, which would otherwise produce negative
// differences.
//
//quicknnlint:recordpath
//quicknnlint:reporting phase durations are host wall seconds
func clampSec(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// promoteSlow handles a request the tail sampler flagged: it lands in
// the slowlog ring and, when a tracer is attached, becomes a span per
// phase on the serve/slow tracks (microsecond ticks — quicknnd's tracer
// is host-time-only, exported with WriteChrome(w, 1)). This is the
// deliberate slow path — it runs for roughly the top 1% of requests and
// may allocate.
func (e *Engine) promoteSlow(rec obs.FlightRecord) {
	e.m.slowPromoted.Inc()
	e.slow.Record(rec)
	tr := e.cfg.Obs.Tr()
	if tr == nil {
		return
	}
	// The tracer's span args are int64-only, so the trace id correlates
	// through the span name: searching a Perfetto dump for the
	// traceparent's trace-id hex finds the promoted span.
	name := fmt.Sprintf("req %d", rec.ID)
	if rec.TraceHi != 0 || rec.TraceLo != 0 {
		name = fmt.Sprintf("req %d trace=%s", rec.ID,
			obs.TraceID{Hi: rec.TraceHi, Lo: rec.TraceLo}.String())
	}
	t0 := usTick(rec.Submit)
	t1 := t0 + usTick(rec.Queue)
	t2 := t1 + usTick(rec.Window)
	t3 := t2 + usTick(rec.Pickup)
	tr.Span("serve/slow", name, t0, usTick(rec.Submit+rec.Total), map[string]int64{
		"epoch":           int64(rec.Epoch),
		"queries":         int64(rec.Queries),
		"batch":           int64(rec.Batch),
		"mode":            int64(rec.Mode),
		"outcome":         int64(rec.Outcome),
		"traversal_steps": int64(rec.TraversalSteps),
		"buckets_visited": int64(rec.BucketsVisited),
		"points_scanned":  int64(rec.PointsScanned),
		"cand_inserts":    int64(rec.CandInserts),
	})
	tr.Span("serve/slow/queue", name, t0, t1, nil)
	tr.Span("serve/slow/window", name, t1, t2, nil)
	tr.Span("serve/slow/pickup", name, t2, t3, nil)
	tr.Span("serve/slow/exec", name, t3, t3+usTick(rec.Exec), nil)
}

// usTick converts host seconds to the microsecond ticks of the serving
// tracer's time domain.
//
//quicknnlint:reporting converts host wall seconds to trace ticks
func usTick(sec float64) int64 { return int64(sec * 1e6) }

// FlightRecords returns a newest-first snapshot of the engine's flight
// ring; nil when no recorder is attached (Config.Obs.Flight was nil).
func (e *Engine) FlightRecords() []obs.FlightRecord { return e.flight.Snapshot() }

// FlightStats reports the flight ring's capacity, total records
// submitted, and records dropped on slot contention (all zero when no
// recorder is attached).
func (e *Engine) FlightStats() (capacity int, total, dropped uint64) {
	return e.flight.Cap(), e.flight.Total(), e.flight.Dropped()
}

// SlowLog returns a newest-first snapshot of the requests the tail
// sampler promoted; nil when slow logging is off.
func (e *Engine) SlowLog() []obs.FlightRecord { return e.slow.Snapshot() }

// TailEstimate returns the tail sampler's current latency-quantile
// estimate in seconds (0 before the first request, or when off).
//
//quicknnlint:reporting exposes the latency estimate for endpoints
func (e *Engine) TailEstimate() float64 { return e.tail.Estimate() }

// TailQuantile returns the quantile the tail sampler tracks (0 when
// recording is off).
//
//quicknnlint:reporting exposes reporting configuration
func (e *Engine) TailQuantile() float64 { return e.tail.Quantile() }

// SlowPromoted returns how many requests the tail sampler has promoted
// to the slowlog (0 when metrics are off).
func (e *Engine) SlowPromoted() uint64 { return uint64(e.m.slowPromoted.Value()) }
