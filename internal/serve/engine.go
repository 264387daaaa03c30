package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/faults"
	"github.com/quicknn/quicknn/internal/obs"
)

// Maintenance selects how the index advances between frames, mirroring
// the pipeline's tree modes (§4.4 of the paper).
type Maintenance int

const (
	// MaintRebuild rebuilds the index from scratch each frame.
	MaintRebuild Maintenance = iota
	// MaintStatic keeps the splits frozen and refills the buckets.
	MaintStatic
	// MaintIncremental reuses the splits with merge/split rebalancing.
	MaintIncremental
)

// Config parameterizes the engine. The zero value is usable: every field
// has a serving-grade default.
type Config struct {
	// BucketSize is the index's bucket target B_N (default 256).
	BucketSize int
	// Seed drives index construction sampling (default 1).
	Seed int64
	// Maintenance selects the frame-advance mode (default MaintRebuild).
	Maintenance Maintenance
	// QueueDepth bounds the submission queue; a full queue sheds with
	// ErrOverloaded (default 256 requests).
	QueueDepth int
	// MaxBatch closes a micro-batch once it holds this many query points
	// (default 64).
	MaxBatch int
	// MaxWindow caps the adaptive batch window (default 2ms).
	MaxWindow time.Duration
	// MinWindow floors the adaptive batch window (default 50µs).
	MinWindow time.Duration
	// Workers bounds the total number of concurrently searching
	// goroutines across all in-flight batches (default GOMAXPROCS).
	Workers int
	// IngestWorkers bounds the ingest fan-out Advance uses to build or
	// update a frame's index snapshot: 0 (the default) resolves to
	// GOMAXPROCS at use time, 1 = one worker (every ingest phase inline
	// on the caller), negative values are treated as 0. Every setting produces a
	// byte-identical snapshot (docs/performance.md), so the knob trades
	// only ingest wall time against CPU available to the query path.
	IngestWorkers int
	// Obs attaches the observability sink publishing the quicknn_serve_*
	// families; nil disables instrumentation. When Obs carries a flight
	// recorder (Obs.Flight), the engine records every request's phase
	// breakdown into it (docs/observability.md).
	Obs *obs.Sink
	// SlowLogSize is the capacity of the slowlog ring holding requests
	// the tail sampler promoted (default 64; negative disables). Only
	// meaningful with a non-nil Obs.
	SlowLogSize int
	// TailQuantile is the latency quantile the adaptive tail sampler
	// tracks; requests slower than its decaying estimate are promoted to
	// full traces (default 0.99; valid range (0,1)).
	TailQuantile float64
	// Degrade parameterizes the adaptive admission controller walking
	// the quality-for-latency ladder (docs/robustness.md). The zero
	// value enables it with serving defaults; set Degrade.Disabled to
	// pin the engine at full fidelity.
	Degrade degrade.Config
	// Faults attaches a fault-injection plan to the engine's seams
	// (submit, worker, build, retire, frame ingest). Inert unless the
	// binary was built with -tags quicknn_faults; nil injects nothing.
	Faults *faults.Plan
	// SLOBurning, when non-nil, reports whether a fast-burn SLO alert is
	// currently firing (slo.Engine.FastBurnFiring). The admission
	// controller consumes it as corroborating pressure evidence
	// (degrade.Signals.SLOFastBurn). It runs on the admission path of
	// every request, so it must be lock-free and non-blocking.
	SLOBurning func() bool
}

func (c Config) withDefaults() Config {
	if c.BucketSize <= 0 {
		c.BucketSize = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 2 * time.Millisecond
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 50 * time.Microsecond
	}
	if c.MinWindow > c.MaxWindow {
		c.MinWindow = c.MaxWindow
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.IngestWorkers < 0 {
		c.IngestWorkers = 0
	}
	if c.SlowLogSize == 0 {
		c.SlowLogSize = 64
	}
	if !(c.TailQuantile > 0 && c.TailQuantile < 1) {
		c.TailQuantile = 0.99
	}
	return c
}

// FrameInfo describes one ingested frame.
type FrameInfo struct {
	// Epoch is the new snapshot's epoch id (1 for the first frame).
	Epoch uint64
	// Points is the frame size.
	Points int
	// Stats is the new index's bucket occupancy.
	Stats quicknn.Stats
	// BuildSeconds is the host wall time spent building the snapshot.
	BuildSeconds float64
	// The remaining fields break BuildSeconds into the ingest phases
	// that ran (docs/performance.md); a phase that did not run is zero.
	// SplitsSeconds covers sampling and split construction (rebuild mode
	// only); PlanSeconds and ScatterSeconds split the parallel two-phase
	// placement, PlaceSeconds is total placement wall time either way;
	// RebalanceSeconds covers incremental merge/split rebalancing.
	SplitsSeconds    float64
	PlanSeconds      float64
	ScatterSeconds   float64
	PlaceSeconds     float64
	RebalanceSeconds float64
	// IngestWorkers is the worker count the ingest actually ran with.
	IngestWorkers int
}

// Engine is the concurrent serving core: epoch-snapshot reads plus a
// micro-batched query path. All methods are safe for concurrent use;
// queries never block frame advances and vice versa.
type Engine struct {
	cfg Config
	m   *metrics

	// current is the epoch readers pin (nil before the first frame).
	current atomic.Pointer[epoch]

	// queue is the bounded submission queue.
	queue chan *request
	// sem is the global worker budget shared by overlapping batches.
	sem chan struct{}

	// subMu guards closed against racing submissions: submit holds the
	// read side across its non-blocking send, so after Close takes the
	// write side and flips closed, the queue is quiescent modulo what is
	// already in it.
	subMu  sync.RWMutex
	closed bool

	// stop signals the batcher to drain and exit.
	stop chan struct{}
	// batcherDone closes when the batcher has drained the queue.
	batcherDone chan struct{}
	// batches tracks in-flight dispatched batches.
	batches sync.WaitGroup

	// frameMu serializes frame advances.
	frameMu sync.Mutex

	// epochMu guards the live-epoch set (epoch lag accounting).
	epochMu sync.Mutex
	live    map[uint64]struct{}

	// ewmaArrival is the EWMA of request inter-arrival seconds (float64
	// bits); lastArrival is the previous submission timestamp (float64
	// bits of obs.MonotonicSeconds). Both are report-domain host values.
	ewmaArrival atomic.Uint64
	lastArrival atomic.Uint64
	// curWindow mirrors the batcher's last adaptive window (float64 bits
	// of seconds) so the admission controller can read the window
	// pressure signal without touching the batcher.
	curWindow atomic.Uint64

	// deg is the degrade-ladder admission controller (nil only in
	// white-box tests that build an Engine literal); flt is the fault-
	// injection plan threaded through the engine's seams (nil-safe).
	deg *degrade.Controller
	flt *faults.Plan

	// Flight-recorder state (docs/observability.md). flight is the
	// sink-owned ring every request is recorded into; slow retains only
	// the requests the tail sampler promoted; rec caches "any recording
	// is on" so the per-query hot path pays one immutable bool check
	// when observability is detached.
	flight *obs.FlightRecorder
	slow   *obs.FlightRecorder
	tail   *obs.TailSampler
	// tailWin corroborates the tail estimate for admission: the degrade
	// signal is min(estimate, recent-window max), so tail pressure
	// forgets within two window lengths once live traffic runs fast —
	// the slow-moving quantile estimator alone cannot (see signals).
	tailWin *obs.WindowedMax
	rec     bool
	reqID   atomic.Uint64

	// inflight counts admitted-but-unanswered requests. It, not the
	// channel's instantaneous length, is the engine's backlog measure:
	// dispatch hands batches to the worker pool asynchronously, so the
	// submission channel drains the moment the batcher looks at it and
	// its length stays near zero even when slow workers have unbounded
	// work parked behind the semaphore. Incremented before enqueue
	// (compensated on a refused submit), decremented by finish.
	inflight atomic.Int64
}

// NewEngine starts an engine: the batcher runs immediately, queries
// before the first Advance fail with ErrNoIndex.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:         cfg,
		m:           newMetrics(cfg.Obs),
		queue:       make(chan *request, cfg.QueueDepth),
		sem:         make(chan struct{}, cfg.Workers),
		stop:        make(chan struct{}),
		batcherDone: make(chan struct{}),
		live:        make(map[uint64]struct{}),
	}
	e.flight = cfg.Obs.Fr()
	if cfg.Obs != nil {
		e.tail = obs.NewTailSampler(cfg.TailQuantile)
		e.tailWin = obs.NewWindowedMax(tailRecentWindow)
		if cfg.SlowLogSize > 0 {
			e.slow = obs.NewFlightRecorder(cfg.SlowLogSize)
		}
	}
	e.rec = e.flight != nil || e.tail != nil
	e.deg = degrade.NewController(cfg.Degrade)
	e.flt = cfg.Faults
	e.curWindow.Store(math.Float64bits(cfg.MinWindow.Seconds()))
	e.m.window.Set(cfg.MinWindow.Seconds())
	go e.batcher()
	return e
}

// Epoch returns the current epoch id (0 before the first frame).
func (e *Engine) Epoch() uint64 {
	if ep := e.current.Load(); ep != nil {
		return ep.id
	}
	return 0
}

// Index returns the current snapshot's index, or nil before the first
// frame. The returned index is immutable; callers may search it directly
// (bypassing batching) but must not update it.
func (e *Engine) Index() *quicknn.Index {
	if ep := e.current.Load(); ep != nil {
		return ep.index
	}
	return nil
}

// ---------------------------------------------------------------- frames

// Advance ingests the next frame: it builds (or incrementally updates, on
// a private copy, per Config.Maintenance) the next index snapshot in the
// background of the read path, then swaps it in atomically. Readers keep
// searching the previous epoch throughout; the previous epoch is retired
// once its last in-flight query drains. Advances are serialized with each
// other but never block queries. A frame with a NaN or infinite
// coordinate is refused with quicknn.ErrInvalidPoint, and the current
// epoch stays.
func (e *Engine) Advance(ctx context.Context, frame []quicknn.Point) (FrameInfo, error) {
	// Fault seam: a firing FrameCorrupt rule truncates the frame to a
	// deterministic prefix; an empty prefix surfaces as the typed
	// ErrEmptyInput below, never as a crash deeper in the build.
	frame = frame[:e.flt.CorruptLen(len(frame))]
	if len(frame) == 0 {
		return FrameInfo{}, fmt.Errorf("%w (Advance requires a non-empty frame)", quicknn.ErrEmptyInput)
	}
	if err := ctx.Err(); err != nil {
		return FrameInfo{}, err
	}
	e.subMu.RLock()
	closed := e.closed
	e.subMu.RUnlock()
	if closed {
		return FrameInfo{}, ErrClosed
	}
	e.frameMu.Lock()
	defer e.frameMu.Unlock()

	cur := e.current.Load()
	e.flt.Inject(faults.BuildSlow)
	start := obs.MonotonicSeconds()
	sw := obs.StartStopwatch()
	var (
		ix  *quicknn.Index
		err error
	)
	if cur == nil || e.cfg.Maintenance == MaintRebuild {
		ix, err = quicknn.BuildIndex(frame,
			quicknn.WithBucketSize(e.cfg.BucketSize), quicknn.WithSeed(e.cfg.Seed),
			quicknn.WithParallelism(e.cfg.IngestWorkers))
		if err != nil {
			return FrameInfo{}, err
		}
	} else {
		ix = cur.index.Snapshot()
		ix.SetParallelism(e.cfg.IngestWorkers)
		switch e.cfg.Maintenance {
		case MaintStatic:
			err = ix.UpdateStatic(frame)
		default:
			err = ix.Update(frame)
		}
		if err != nil {
			return FrameInfo{}, err
		}
	}
	buildSec := sw.Seconds()
	ing := ix.IngestTiming()

	var id uint64 = 1
	if cur != nil {
		id = cur.id + 1
	}
	next := newEpoch(id, ix, len(frame))
	e.epochMu.Lock()
	e.live[id] = struct{}{}
	e.epochMu.Unlock()

	old := e.current.Swap(next)
	if old != nil {
		old.release(e.retire) // drop the engine's current-reference
	}

	e.m.frames.Inc()
	e.m.epochsTotal.Inc()
	e.m.frameBuild.Observe(buildSec)
	e.observeIngest(ing)
	e.traceIngest(id, len(frame), start, buildSec, ing)
	e.publishEpochGauges(id)
	return FrameInfo{
		Epoch: id, Points: len(frame), Stats: ix.Stats(), BuildSeconds: buildSec,
		SplitsSeconds:    ing.SplitsSeconds,
		PlanSeconds:      ing.PlanSeconds,
		ScatterSeconds:   ing.ScatterSeconds,
		PlaceSeconds:     ing.PlaceSeconds,
		RebalanceSeconds: ing.RebalanceSeconds,
		IngestWorkers:    ing.Workers,
	}, nil
}

// observeIngest publishes the frame advance's per-phase ingest breakdown.
// Only phases that actually ran are observed, keeping the histograms free
// of structural zeros (Splits never runs on incremental updates).
func (e *Engine) observeIngest(ing quicknn.IngestTiming) {
	if ing.SplitsSeconds > 0 {
		e.m.ingestSplits.Observe(ing.SplitsSeconds)
	}
	if ing.PlanSeconds > 0 {
		e.m.ingestPlan.Observe(ing.PlanSeconds)
	}
	if ing.ScatterSeconds > 0 {
		e.m.ingestScatter.Observe(ing.ScatterSeconds)
	}
	if ing.PlaceSeconds > 0 {
		e.m.ingestPlace.Observe(ing.PlaceSeconds)
	}
	if ing.RebalanceSeconds > 0 {
		e.m.ingestRebalance.Observe(ing.RebalanceSeconds)
	}
	if ing.Workers > 0 {
		e.m.ingestWorkers.Set(float64(ing.Workers))
	}
}

// traceIngest emits the frame advance as spans on the serve/ingest tracks
// when a tracer is attached: one covering span plus one child per phase
// that ran, laid out sequentially from the advance's start (phases do run
// back to back; each phase's internal fan-out is not traced). Microsecond
// ticks, same time domain as the serve/slow tracks.
func (e *Engine) traceIngest(epoch uint64, points int, start, buildSec float64, ing quicknn.IngestTiming) {
	tr := e.cfg.Obs.Tr()
	if tr == nil {
		return
	}
	name := fmt.Sprintf("frame %d", epoch)
	t0 := usTick(start)
	tr.Span("serve/ingest", name, t0, t0+usTick(buildSec), map[string]int64{
		"epoch":   int64(epoch),
		"points":  int64(points),
		"workers": int64(ing.Workers),
	})
	t := t0
	if ing.SplitsSeconds > 0 {
		tr.Span("serve/ingest/splits", name, t, t+usTick(ing.SplitsSeconds), nil)
		t += usTick(ing.SplitsSeconds)
	}
	if ing.PlanSeconds > 0 || ing.ScatterSeconds > 0 {
		// Parallel placement: the plan/scatter split is meaningful.
		tr.Span("serve/ingest/plan", name, t, t+usTick(ing.PlanSeconds), nil)
		t += usTick(ing.PlanSeconds)
		tr.Span("serve/ingest/scatter", name, t, t+usTick(ing.ScatterSeconds), nil)
		t += usTick(ing.ScatterSeconds)
	} else if ing.PlaceSeconds > 0 {
		tr.Span("serve/ingest/place", name, t, t+usTick(ing.PlaceSeconds), nil)
		t += usTick(ing.PlaceSeconds)
	}
	if ing.RebalanceSeconds > 0 {
		tr.Span("serve/ingest/rebalance", name, t, t+usTick(ing.RebalanceSeconds), nil)
	}
}

// retire is the epoch drain callback: the last reference release lands
// here exactly once per epoch.
func (e *Engine) retire(ep *epoch) {
	e.flt.Inject(faults.RetireDelay)
	e.epochMu.Lock()
	delete(e.live, ep.id)
	e.epochMu.Unlock()
	if cur := e.current.Load(); cur != nil {
		e.publishEpochGauges(cur.id)
	}
}

// publishEpochGauges refreshes the epoch gauges from the live set.
func (e *Engine) publishEpochGauges(currentID uint64) {
	e.epochMu.Lock()
	liveCount := len(e.live)
	oldest := currentID
	for id := range e.live {
		if id < oldest {
			oldest = id
		}
	}
	e.epochMu.Unlock()
	e.m.epoch.Set(float64(currentID))
	e.m.epochLive.Set(float64(liveCount))
	e.m.epochLag.Set(float64(currentID - oldest))
}

// acquireCurrent pins the current epoch for a batch, retrying across
// concurrent swaps; nil before the first frame.
func (e *Engine) acquireCurrent() *epoch {
	for {
		ep := e.current.Load()
		if ep == nil {
			return nil
		}
		if !ep.tryAcquire() {
			continue // drained between load and acquire: reload
		}
		if e.current.Load() == ep {
			return ep
		}
		ep.release(e.retire) // swapped meanwhile: prefer the fresh epoch
	}
}

// --------------------------------------------------------------- queries

// QueryResult is Do's answer: the per-query neighbor lists plus the
// serving metadata the /v1 wire API surfaces — which epoch snapshot
// answered, what the degrade ladder did to the request, and the
// engine-scoped request id correlating the answer with its flight
// record, exemplar and promoted span.
type QueryResult struct {
	// Results holds one neighbor list per query point.
	Results [][]quicknn.Neighbor
	// Epoch is the epoch-snapshot generation that answered.
	Epoch uint64
	// Level is the degrade-ladder level admission stamped on the
	// request (LevelNone = full fidelity).
	Level degrade.Level
	// Actions is the bitmask of option rewrites the ladder applied.
	Actions degrade.Actions
	// ID is the engine-scoped request id stamped into the flight record
	// and latency exemplar (0 when the request was refused before one
	// was assigned).
	ID uint64
}

// Submission bundles one request's inputs for Do: the query points,
// their options, the strictness bit, and the wire-level correlation id.
type Submission struct {
	// Queries are the query points, answered against one snapshot.
	Queries []quicknn.Point
	// Opts apply to every query (the degrade ladder may rewrite them).
	Opts quicknn.QueryOptions
	// Strict refuses degradation: the request fails with ErrDegraded
	// whenever the ladder is engaged instead of accepting a clamped
	// answer.
	Strict bool
	// Trace is the caller's W3C trace id (zero when none): it is
	// stamped into the request's flight record, its latency exemplar
	// (low half), and its promoted Perfetto span, so the caller's
	// distributed trace finds this engine's per-phase evidence.
	Trace obs.TraceID
}

// Do submits one request to the micro-batching engine and waits for the
// answer. Admission runs the adaptive degrade controller, rewrites the
// request's options for the current ladder level, and reports what it
// did. Failure modes: ErrOverloaded (queue full at submit), ErrShed
// (degrade ladder at its top rung), ErrDegraded (strict request meeting
// an engaged ladder), ErrClosed (engine draining), ErrNoIndex (no frame
// yet), or the ctx error when the deadline expires first — the search
// of an expired request is abandoned at its next leaf group or bucket.
// All of a request's queries are answered against one epoch snapshot.
func (e *Engine) Do(ctx context.Context, sub Submission) (QueryResult, error) {
	if len(sub.Queries) == 0 {
		return QueryResult{Results: [][]quicknn.Neighbor{}, Epoch: e.Epoch()}, nil
	}
	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	if e.current.Load() == nil {
		return QueryResult{}, ErrNoIndex
	}
	opts := sub.Opts
	level, acts, err := e.admit(&opts, sub.Strict)
	if err != nil {
		return QueryResult{}, err
	}
	req := newRequest(ctx, sub.Queries, opts)
	req.id = e.reqID.Add(1)
	req.degradeLevel = uint8(level)
	req.traceHi, req.traceLo = sub.Trace.Hi, sub.Trace.Lo
	if err := e.submit(req); err != nil {
		return QueryResult{}, err
	}
	select {
	case <-req.done:
		if req.err != nil {
			return QueryResult{}, req.err
		}
		return QueryResult{Results: req.results, Epoch: req.epochID, Level: level, Actions: acts, ID: req.id}, nil
	case <-ctx.Done():
		// The request's search polls the same ctx and abandons its batch
		// call at the next leaf group or bucket; the caller gets the
		// deadline verdict now.
		return QueryResult{}, ctx.Err()
	}
}

// admit runs the degrade controller for one request: it feeds the
// controller the live pressure signals, refuses at the shed rung
// (ErrShed) or on a strict request meeting an engaged ladder
// (ErrDegraded), and otherwise rewrites the options for the level.
// Counts every ladder movement and action in the quicknn_degrade_*
// families. Nil-safe: white-box tests build Engine literals without a
// controller and get full-fidelity admission.
func (e *Engine) admit(opts *quicknn.QueryOptions, strict bool) (degrade.Level, degrade.Actions, error) {
	if e.deg == nil {
		return degrade.LevelNone, 0, nil
	}
	now := obs.MonotonicSeconds()
	level, delta := e.deg.Observe(now, e.signals(now))
	e.noteLadder(level, delta)
	if level == degrade.LevelShed {
		e.m.degShed.Inc()
		e.m.requests.With("shed").Inc()
		return level, 0, ErrShed
	}
	if strict && level > degrade.LevelNone {
		e.m.degStrict.Inc()
		e.m.requests.With("degraded").Inc()
		return level, 0, ErrDegraded
	}
	var acts degrade.Actions
	*opts, acts = e.deg.Config().Apply(*opts, level)
	if acts.Has(degrade.ActClampChecks) {
		e.m.degActions.With("clamp_checks").Inc()
	}
	if acts.Has(degrade.ActForceChecks) {
		e.m.degActions.With("force_checks").Inc()
	}
	if acts.Has(degrade.ActClampK) {
		e.m.degActions.With("clamp_k").Inc()
	}
	return level, acts, nil
}

// tailRecentWindow is the length in seconds of the corroboration
// windows behind the tail pressure signal (two are kept, so tail
// pressure outlives its last slow completion by at most twice this).
const tailRecentWindow = 1.0

// signals samples the engine's live pressure inputs for the controller.
// The window signal is the adaptive window's floor saturation — arrivals
// fast enough that half a batch arrives within MinWindow — gated on a
// backlog of at least one full batch: a floored window with an empty
// queue is a responsive idle engine, while a floored window behind a
// batch-deep backlog means the batcher is coalescing flat out and still
// falling behind.
//
// The tail signal is the sampler's quantile estimate corroborated by
// recent completions: min(estimate, max latency completed in the last
// two tailRecentWindow-second windows). The pinball estimator moves at
// most 5% per sample, so after an overload episode it stays over budget
// for thousands of requests; the windowed max makes tail pressure
// testify about the service *now* and forget on a wall-clock bound.
// The backlog signal is admitted-but-unanswered requests (see the
// inflight field) against the queue bound, clamped to [0, 1] — async
// dispatch keeps the channel itself near-empty under the exact loads
// the ladder exists for.
func (e *Engine) signals(now float64) degrade.Signals {
	depth := e.backlog()
	var wf float64
	if span := (e.cfg.MaxWindow - e.cfg.MinWindow).Seconds(); span > 0 && depth >= e.cfg.MaxBatch {
		// Read the arrival rate, not the window: windowFor also falls
		// back to MinWindow when arrivals are too slow to batch.
		wf = (e.cfg.MaxWindow.Seconds() - e.halfBatchWait()) / span
		if wf < 0 {
			wf = 0
		}
		if wf > 1 {
			wf = 1
		}
	}
	tail := e.tail.Estimate()
	if e.tailWin != nil {
		if recent := e.tailWin.Max(now); recent < tail {
			tail = recent
		}
	}
	qf := float64(depth) / float64(cap(e.queue))
	if qf > 1 {
		qf = 1
	}
	return degrade.Signals{
		QueueFrac:   qf,
		WindowFrac:  wf,
		TailSeconds: tail,
		SLOFastBurn: e.cfg.SLOBurning != nil && e.cfg.SLOBurning(),
	}
}

// backlog is the engine's pressure-facing queue depth: the larger of
// the submission channel's instantaneous length and the in-flight
// count. In a live engine in-flight dominates (a queued request is in
// flight); the channel length keeps white-box tests that stuff the
// queue directly honest.
func (e *Engine) backlog() int {
	depth := len(e.queue)
	if inf := int(e.inflight.Load()); inf > depth {
		depth = inf
	}
	return depth
}

// noteLadder publishes one controller verdict: the level gauge, and the
// up/down transition counters when the observation moved the ladder.
func (e *Engine) noteLadder(level degrade.Level, delta int) {
	e.m.degLevel.Set(float64(level))
	switch {
	case delta > 0:
		e.m.degTransitions.With("up").Add(int64(delta))
	case delta < 0:
		e.m.degTransitions.With("down").Add(int64(-delta))
	}
}

// DegradeLevel returns the ladder level as of now. Reading it advances
// calm-time decay, so polling health or metrics endpoints walks an idle
// engine back to full fidelity even with zero traffic.
func (e *Engine) DegradeLevel() degrade.Level {
	if e.deg == nil {
		return degrade.LevelNone
	}
	level, delta := e.deg.Current(obs.MonotonicSeconds())
	e.noteLadder(level, delta)
	return level
}

// Draining reports whether Close has begun: the engine answers what it
// already accepted but admits nothing new.
func (e *Engine) Draining() bool {
	e.subMu.RLock()
	defer e.subMu.RUnlock()
	return e.closed
}

// QueueStats reports the engine's backlog — admitted-but-unanswered
// requests, the degrade controller's queue-pressure signal — and the
// queue bound it is measured against.
func (e *Engine) QueueStats() (depth, capacity int) {
	return e.backlog(), cap(e.queue)
}

// RetryAfterHint estimates how long a refused caller (overloaded, shed,
// degraded) should wait before retrying: the time to drain the current
// submission queue at the observed service rate, approximating one
// batch's service time by the tail-latency estimate (falling back to
// the adaptive window when unseeded). Clamped to [100ms, 5s] so the
// hint is always actionable; quicknnd derives Retry-After and
// retry_after_ms from it.
func (e *Engine) RetryAfterHint() time.Duration {
	per := e.tail.Estimate()
	if per <= 0 {
		per = math.Float64frombits(e.curWindow.Load())
	}
	batches := e.backlog()/e.cfg.MaxBatch + 1
	d := time.Duration(float64(batches) * per * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// submit enqueues a request, shedding instead of blocking.
func (e *Engine) submit(req *request) error {
	e.flt.Inject(faults.SubmitDelay)
	e.subMu.RLock()
	defer e.subMu.RUnlock()
	if e.closed {
		e.m.requests.With("closed").Inc()
		return ErrClosed
	}
	// Count the request in-flight before the enqueue can succeed: the
	// batcher may pick it up and finish it (decrementing) the instant it
	// lands in the channel.
	e.inflight.Add(1)
	select {
	case e.queue <- req:
		e.noteArrival(req.submitted)
		e.m.queueDepth.Set(float64(len(e.queue)))
		return nil
	default:
		e.inflight.Add(-1)
		e.m.shed.Inc()
		e.m.requests.With("shed").Inc()
		return ErrOverloaded
	}
}

// noteArrival feeds the adaptive-window estimator with one submission
// timestamp, maintaining an EWMA of inter-arrival seconds.
func (e *Engine) noteArrival(now float64) {
	prev := math.Float64frombits(e.lastArrival.Swap(math.Float64bits(now)))
	if prev <= 0 || now <= prev {
		return
	}
	interval := now - prev
	for {
		oldBits := e.ewmaArrival.Load()
		old := math.Float64frombits(oldBits)
		next := interval
		if old > 0 {
			next = 0.8*old + 0.2*interval
		}
		if e.ewmaArrival.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// halfBatchWait returns the seconds half a batch takes to arrive at the
// observed arrival rate (0 before the rate estimate is seeded).
func (e *Engine) halfBatchWait() float64 {
	ewma := math.Float64frombits(e.ewmaArrival.Load())
	return ewma * float64(e.cfg.MaxBatch) / 2
}

// windowFor derives the batch window from the arrival-rate estimate: the
// time to fill roughly half a batch at the observed rate, floored at
// MinWindow. Hot services grow the window toward MaxWindow only as far as
// batching actually pays; when half a batch cannot arrive within
// MaxWindow (an idle service, or a lone closed-loop caller whose next
// request waits on this one's answer), waiting gains nothing and the
// window falls back to MinWindow.
func (e *Engine) windowFor() time.Duration {
	w := time.Duration(e.halfBatchWait() * float64(time.Second))
	if w < e.cfg.MinWindow || w > e.cfg.MaxWindow {
		w = e.cfg.MinWindow
	}
	e.curWindow.Store(math.Float64bits(w.Seconds()))
	e.m.window.Set(w.Seconds())
	return w
}

// --------------------------------------------------------------- batcher

// batcher is the engine's single coalescing loop: it blocks for the
// first request, gathers more until the adaptive window closes or the
// batch is full, and dispatches. On stop it drains the queue (every
// accepted request is answered) and exits.
func (e *Engine) batcher() {
	defer close(e.batcherDone)
	for {
		req, ok := e.nextRequest()
		if !ok {
			return
		}
		req.pickedUp = obs.MonotonicSeconds()
		batch := []*request{req}
		points := len(req.queries)
		timer := newWindowTimer(e.windowFor())
	gather:
		for points < e.cfg.MaxBatch {
			select {
			case r2 := <-e.queue:
				r2.pickedUp = obs.MonotonicSeconds()
				batch = append(batch, r2)
				points += len(r2.queries)
			case <-timer.C:
				break gather
			case <-e.stop:
				break gather // drain fast on shutdown
			}
		}
		stopTimer(timer)
		e.m.queueDepth.Set(float64(len(e.queue)))
		e.dispatch(batch, points)
	}
}

// nextRequest blocks for the next request; after stop it keeps returning
// leftovers until the queue is empty, then reports done.
func (e *Engine) nextRequest() (*request, bool) {
	select {
	case r := <-e.queue:
		return r, true
	case <-e.stop:
		select {
		case r := <-e.queue:
			return r, true
		default:
			return nil, false
		}
	}
}

// dispatch pins the current epoch and hands the batch to a batch
// goroutine asynchronously, so the batcher can keep coalescing.
func (e *Engine) dispatch(batch []*request, points int) {
	e.m.batches.Inc()
	e.m.batchSize.ObserveWithExemplar(float64(points), batch[0].id, batch[0].traceLo)
	now := obs.MonotonicSeconds()
	for _, req := range batch {
		req.dispatched = now
		req.batchPoints = int32(points)
	}
	ep := e.acquireCurrent()
	if ep == nil {
		// No index (first frame raced a query past the submit check):
		// answer everything with ErrNoIndex.
		for _, req := range batch {
			e.finish(req, ErrNoIndex)
		}
		return
	}
	for _, req := range batch {
		req.epochID = ep.id
	}
	e.batches.Add(1)
	go func() {
		defer e.batches.Done()
		defer ep.release(e.retire)
		e.runBatch(ep, batch, points)
	}()
}

// ----------------------------------------------------------------- drain

// Close drains the engine gracefully: new submissions fail with
// ErrClosed immediately, every already-accepted request is answered, the
// batcher and all in-flight batches finish, and pinned epochs are
// released. ctx bounds the wait; on expiry the engine is still closed
// (the drain keeps finishing in the background) and ctx.Err() is
// returned. Close is idempotent.
func (e *Engine) Close(ctx context.Context) error {
	e.subMu.Lock()
	already := e.closed
	e.closed = true
	e.subMu.Unlock()
	if !already {
		close(e.stop)
	}
	done := make(chan struct{})
	go func() {
		<-e.batcherDone
		e.batches.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
