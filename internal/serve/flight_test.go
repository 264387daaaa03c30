package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// flightEngine builds an engine with a full recording setup: metrics,
// tracer, and a flight ring of the given capacity.
func flightEngine(t *testing.T, ringSize, workers int) (*Engine, *obs.Sink) {
	t.Helper()
	sink := obs.NewSink("flight-test")
	sink.Flight = obs.NewFlightRecorder(ringSize)
	e := NewEngine(Config{
		QueueDepth: 4096,
		MaxBatch:   32,
		MaxWindow:  300 * time.Microsecond,
		Workers:    workers,
		Obs:        sink,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return e, sink
}

// TestFlightRecordsCaptureRequest drives one request end to end and
// checks the flight record carries the right identity, phase and work
// breakdown, and that the latency histogram got a matching exemplar.
func TestFlightRecordsCaptureRequest(t *testing.T) {
	e, sink := flightEngine(t, 256, 2)
	rng := rand.New(rand.NewSource(3))
	mustAdvance(t, e, 1, 800, rng)

	const nq, k = 5, 3
	if _, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, nq, rng), Opts: quicknn.QueryOptions{K: k}}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	recs := e.FlightRecords()
	if len(recs) != 1 {
		t.Fatalf("FlightRecords has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID == 0 {
		t.Fatal("record has zero request id")
	}
	if rec.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", rec.Epoch)
	}
	if rec.Queries != nq || rec.K != k || rec.Mode != uint8(quicknn.ModeApprox) {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Batch < rec.Queries {
		t.Fatalf("Batch = %d < Queries = %d", rec.Batch, rec.Queries)
	}
	if rec.Outcome != obs.OutcomeOK {
		t.Fatalf("Outcome = %d, want OK", rec.Outcome)
	}
	if rec.Total <= 0 || rec.Exec <= 0 {
		t.Fatalf("timings not captured: %+v", rec)
	}
	for _, phase := range []float64{rec.Queue, rec.Window, rec.Pickup, rec.Exec} {
		if phase < 0 || phase > rec.Total {
			t.Fatalf("phase %v outside [0, total=%v]: %+v", phase, rec.Total, rec)
		}
	}
	// Work counters: 5 approx queries against a 2-bucket-plus tree visit
	// >= 1 bucket and insert >= k candidates each.
	if rec.BucketsVisited < nq || rec.PointsScanned == 0 || rec.CandInserts < nq*k || rec.TraversalSteps == 0 {
		t.Fatalf("work counters not captured: %+v", rec)
	}
	capacity, total, dropped := e.FlightStats()
	if capacity != 256 || total != 1 || dropped != 0 {
		t.Fatalf("FlightStats = (%d, %d, %d), want (256, 1, 0)", capacity, total, dropped)
	}
	// The tail sampler seeded on this request (no promotion yet).
	if e.TailEstimate() <= 0 {
		t.Fatal("tail estimate not seeded")
	}
	if e.TailQuantile() != 0.99 {
		t.Fatalf("TailQuantile = %v, want default 0.99", e.TailQuantile())
	}
	if len(e.SlowLog()) != 0 {
		t.Fatal("first request must seed, not promote")
	}
	// The latency histogram carries an exemplar with this request's id.
	fam, ok := sink.Metrics.Snapshot().Find("quicknn_serve_latency_seconds")
	if !ok {
		t.Fatal("latency family missing")
	}
	found := false
	for _, ex := range fam.Series[0].Exemplars {
		if ex.Set && ex.ID == rec.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no latency exemplar with request id %d", rec.ID)
	}
}

// TestTraceThreadsThroughRequest drives one traced submission end to
// end and checks the trace id surfaces everywhere the tentpole promises:
// the flight record's Hi/Lo halves, the latency exemplar's derived
// 64-bit form, and (once the tail sampler promotes) the slowlog entry.
func TestTraceThreadsThroughRequest(t *testing.T) {
	e, sink := flightEngine(t, 64, 2)
	rng := rand.New(rand.NewSource(7))
	mustAdvance(t, e, 1, 600, rng)

	trace := obs.TraceID{Hi: 0x4bf92f3577b34da6, Lo: 0xa3ce929d0e0e4736}
	res, err := e.Do(context.Background(), Submission{
		Queries: taggedFrame(1, 3, rng),
		Opts:    quicknn.QueryOptions{K: 2},
		Trace:   trace,
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.ID == 0 {
		t.Fatal("traced request got no engine id")
	}
	recs := e.FlightRecords()
	if len(recs) != 1 {
		t.Fatalf("FlightRecords has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != res.ID {
		t.Fatalf("record id %d != result id %d", rec.ID, res.ID)
	}
	if rec.TraceHi != trace.Hi || rec.TraceLo != trace.Lo {
		t.Fatalf("flight record trace = %016x%016x, want %s", rec.TraceHi, rec.TraceLo, trace.String())
	}
	// The latency exemplar carries the derived 64-bit form (low half).
	fam, ok := sink.Metrics.Snapshot().Find("quicknn_serve_latency_seconds")
	if !ok {
		t.Fatal("latency family missing")
	}
	found := false
	for _, ex := range fam.Series[0].Exemplars {
		if ex.Set && ex.ID == res.ID {
			found = true
			if ex.Trace != trace.Lo {
				t.Fatalf("exemplar trace = %016x, want %016x", ex.Trace, trace.Lo)
			}
		}
	}
	if !found {
		t.Fatalf("no latency exemplar with request id %d", res.ID)
	}
	// Force promotion on a second traced request: the slowlog entry must
	// carry the same halves.
	e.tail = obs.NewTailSampler(0.9)
	e.tail.Observe(1e-9) // seed tiny: every later sample promotes
	if _, err := e.Do(context.Background(), Submission{
		Queries: taggedFrame(1, 1, rng),
		Opts:    quicknn.QueryOptions{K: 2},
		Trace:   trace,
	}); err != nil {
		t.Fatalf("Do (promoted): %v", err)
	}
	slow := e.SlowLog()
	if len(slow) == 0 {
		t.Fatal("tiny tail seed must promote the second request")
	}
	if slow[0].TraceHi != trace.Hi || slow[0].TraceLo != trace.Lo {
		t.Fatalf("slowlog trace = %016x%016x, want %s", slow[0].TraceHi, slow[0].TraceLo, trace.String())
	}
}

// TestFlightRecordsOutcomes checks error and cancellation attribution.
func TestFlightRecordsOutcomes(t *testing.T) {
	e, _ := flightEngine(t, 64, 2)
	rng := rand.New(rand.NewSource(5))
	mustAdvance(t, e, 1, 300, rng)

	// Invalid options fail inside the batch call: outcome error.
	if _, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, 2, rng), Opts: quicknn.QueryOptions{K: 0}}); err == nil {
		t.Fatal("K=0 must fail")
	}
	// A pre-canceled request entering the worker path: outcome canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := newRequest(ctx, taggedFrame(1, 1, rng), quicknn.QueryOptions{K: 1})
	req.id = e.reqID.Add(1)
	if err := e.submit(req); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-req.done

	deadline := time.After(5 * time.Second)
	for {
		recs := e.FlightRecords()
		var gotErr, gotCanceled bool
		for _, rec := range recs {
			switch rec.Outcome {
			case obs.OutcomeError:
				gotErr = true
			case obs.OutcomeCanceled:
				gotCanceled = true
			}
		}
		if gotErr && gotCanceled {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("outcomes not recorded; records: %+v", recs)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestFlightRecorderStormAcrossEpochSwaps is the satellite's -race storm:
// concurrent ring writers (batch workers completing requests) and
// readers (FlightRecords/SlowLog snapshots) race constant epoch swaps on
// a deliberately tiny ring that wraps continuously. Every surfaced
// record must be internally consistent.
func TestFlightRecorderStormAcrossEpochSwaps(t *testing.T) {
	e, _ := flightEngine(t, 32, 4)
	rng := rand.New(rand.NewSource(11))
	mustAdvance(t, e, 1, 1200, rng)

	const (
		queryWorkers = 6
		frameSwaps   = 12
	)
	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	// Snapshot readers, hammering both rings until the swaps finish.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := e.FlightRecords()
				recs = append(recs, e.SlowLog()...)
				maxEpoch := e.Epoch() // read AFTER the snapshots: ids only grow
				for _, rec := range recs {
					if rec.ID == 0 || rec.Queries == 0 || rec.Epoch == 0 || rec.Epoch > maxEpoch ||
						rec.Outcome > obs.OutcomeCanceled || rec.Total < 0 ||
						rec.Queue < 0 || rec.Window < 0 || rec.Pickup < 0 || rec.Exec < 0 {
						bad.Add(1)
					}
				}
			}
		}()
	}
	// Query writers.
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := e.Do(context.Background(), Submission{
					Queries: taggedFrame(1, 1+i%7, wrng), Opts: quicknn.QueryOptions{K: 4}})
				if err != nil {
					t.Errorf("worker %d: Do: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Keep swapping epochs until the ring has wrapped at least once
	// (records >> capacity), so writers, readers and swaps genuinely
	// overlap; frameSwaps is the floor.
	frameRng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(10 * time.Second)
	f := 2
	for {
		mustAdvance(t, e, f, 1200, frameRng)
		_, total, _ := e.FlightStats()
		if f >= frameSwaps && total > 64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm never filled the ring (total=%d after %d swaps)", total, f-1)
		}
		f++
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inconsistent records surfaced during the storm", n)
	}
	_, total, _ := e.FlightStats()
	if total == 0 {
		t.Fatal("storm recorded nothing")
	}
}

// TestRecordFlightZeroAlloc guards the serving engine's added record
// path — exec-start stamping, work-counter accumulation, record
// assembly, ring write, tail observation, exemplar — at zero
// allocations. Together with the obs-level guards and the root
// QueryInto guard this is the "0 allocs with the recorder enabled"
// acceptance criterion.
func TestRecordFlightZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	sink := &obs.Sink{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(256)}
	e := NewEngine(Config{Workers: 1, Obs: sink})
	defer e.Close(context.Background())
	if !e.rec {
		t.Fatal("recording not enabled")
	}
	req := newRequest(context.Background(), make([]quicknn.Point, 4), quicknn.QueryOptions{K: 8})
	req.id = 7
	req.epochID = 3
	req.pickedUp = req.submitted
	req.dispatched = req.submitted
	req.batchPoints = 4
	req.traceHi, req.traceLo = 0x0102030405060708, 0x1112131415161718
	st := quicknn.QueryStats{TraversalSteps: 11, PointsScanned: 256, BucketsVisited: 4, CandInserts: 19}
	// Seed the tail estimate high so the measured loop exercises the
	// common no-promotion branch (promotion is the sanctioned slow path).
	e.tail.Observe(1e6)
	if allocs := testing.AllocsPerRun(500, func() {
		req.execStart = obs.MonotonicSeconds()
		req.work = st
		now := obs.MonotonicSeconds()
		e.recordFlight(req, now, now-req.submitted)
		e.m.latency.ObserveWithExemplar(now-req.submitted, req.id, req.traceLo)
	}); allocs != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", allocs)
	}
	// With a metrics-only sink even promotion must not allocate spans.
	e.tail = obs.NewTailSampler(0.9)
	e.tail.Observe(1e-9) // seed tiny: every later sample promotes
	if allocs := testing.AllocsPerRun(500, func() {
		now := obs.MonotonicSeconds()
		e.recordFlight(req, now, now-req.submitted)
	}); allocs != 0 {
		t.Fatalf("promotion path (no tracer) allocates %v allocs/op, want 0", allocs)
	}
	if e.m.slowPromoted.Value() == 0 {
		t.Fatal("promotion branch was not exercised")
	}
}

// TestNoRecordingWithoutObs pins the off state: a nil sink leaves the
// request path free of recording work and the accessors inert.
func TestNoRecordingWithoutObs(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close(context.Background())
	if e.rec {
		t.Fatal("recording enabled without a sink")
	}
	rng := rand.New(rand.NewSource(2))
	mustAdvance(t, e, 1, 200, rng)
	if _, err := e.Do(context.Background(), Submission{Queries: []quicknn.Point{{}}, Opts: quicknn.QueryOptions{K: 1}}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if e.FlightRecords() != nil || e.SlowLog() != nil || e.TailEstimate() != 0 || e.TailQuantile() != 0 {
		t.Fatal("recording accessors must be inert without a sink")
	}
}
