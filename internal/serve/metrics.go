package serve

import (
	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// metrics bundles the engine's quicknn_serve_* instrument handles. All
// handles tolerate a nil sink (obs instruments are nil-safe), so the
// engine threads them unconditionally; see docs/serving.md for the
// family reference.
type metrics struct {
	requests    *obs.CounterVec // label result: ok | error | shed | closed
	queries     *obs.Counter
	shed        *obs.Counter
	batches     *obs.Counter
	frames      *obs.Counter
	queueDepth  *obs.Gauge
	window      *obs.Gauge
	epoch       *obs.Gauge
	epochLive   *obs.Gauge
	epochLag    *obs.Gauge
	batchSize   *obs.Histogram
	latency     *obs.Histogram
	frameBuild  *obs.Histogram
	epochsTotal *obs.Counter

	// Flight-recorder companions: requests the tail sampler promoted to
	// full traces, and its decaying latency-quantile estimate.
	slowPromoted *obs.Counter
	tailEstimate *obs.Gauge

	// Degrade-ladder families (docs/robustness.md): the current rung,
	// every transition by direction, every option rewrite by action, and
	// the two typed refusals the ladder produces.
	degLevel       *obs.Gauge
	degTransitions *obs.CounterVec // label direction: up | down
	degActions     *obs.CounterVec // label action: clamp_checks | force_checks | clamp_k
	degShed        *obs.Counter
	degStrict      *obs.Counter
}

// newMetrics registers the serve metric families on the sink's registry
// (a nil sink yields all-nil, no-op instruments).
func newMetrics(sink *obs.Sink) *metrics {
	reg := sink.Reg()
	m := &metrics{}
	m.requests = reg.Counter("quicknn_serve_requests_total",
		"Search requests by outcome.", "result")
	m.queries = reg.Counter("quicknn_serve_queries_total",
		"Individual query points executed by the batch engine.").With()
	m.shed = reg.Counter("quicknn_serve_shed_total",
		"Requests shed by backpressure (submission queue full).").With()
	m.batches = reg.Counter("quicknn_serve_batches_total",
		"Micro-batches dispatched to batch goroutines.").With()
	m.frames = reg.Counter("quicknn_serve_frames_total",
		"Frames ingested (epoch advances).").With()
	m.queueDepth = reg.Gauge("quicknn_serve_queue_depth",
		"Requests waiting in the submission queue.").With()
	m.window = reg.Gauge("quicknn_serve_batch_window_seconds",
		"Current adaptive micro-batch window.").With()
	m.epoch = reg.Gauge("quicknn_serve_epoch",
		"Current epoch id (frames ingested).").With()
	m.epochLive = reg.Gauge("quicknn_serve_epoch_live",
		"Epochs still alive (current plus draining).").With()
	m.epochLag = reg.Gauge("quicknn_serve_epoch_lag",
		"Current epoch id minus the oldest still-draining epoch id.").With()
	m.batchSize = reg.Histogram("quicknn_serve_batch_size",
		"Queries per dispatched micro-batch.",
		obs.ExpBuckets(1, 2, 11)).With()
	m.latency = reg.Histogram("quicknn_serve_latency_seconds",
		"Request latency from submission to completion.",
		obs.TimeBuckets()).With()
	m.frameBuild = reg.Histogram("quicknn_serve_frame_build_seconds",
		"Host wall seconds building or updating one frame's index snapshot.",
		obs.TimeBuckets()).With()
	m.epochsTotal = reg.Counter("quicknn_serve_epochs_total",
		"Epochs created since engine start.").With()
	// The parallel-ingest families (docs/performance.md), declared with
	// every phase series; Advance publishes into them.
	quicknn.IngestTiming{}.Publish(reg)
	m.slowPromoted = reg.Counter("quicknn_serve_slow_total",
		"Requests promoted to full traces by the adaptive tail sampler.").With()
	m.tailEstimate = reg.Gauge("quicknn_serve_tail_latency_seconds",
		"Decaying tail-quantile latency estimate driving slow-trace promotion.").With()
	m.degLevel = reg.Gauge("quicknn_degrade_level",
		"Current degrade-ladder rung (0 none .. 4 shed).").With()
	m.degTransitions = reg.Counter("quicknn_degrade_transitions_total",
		"Degrade-ladder rung movements by direction.", "direction")
	m.degActions = reg.Counter("quicknn_degrade_actions_total",
		"Requests rewritten by the degrade ladder, by action taken.", "action")
	m.degShed = reg.Counter("quicknn_degrade_shed_total",
		"Requests refused at the shed rung (typed ErrShed).").With()
	m.degStrict = reg.Counter("quicknn_degrade_strict_rejects_total",
		"Strict (full-fidelity) requests refused while the ladder was engaged (typed ErrDegraded).").With()
	return m
}
