package quicknn

import (
	"context"
	"fmt"

	qsim "github.com/quicknn/quicknn/internal/arch/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// PipelineConfig configures the streaming perception loop.
type PipelineConfig struct {
	// K is the number of neighbors returned per point.
	K int
	// BucketSize is the index's bucket target B_N.
	BucketSize int
	// Mode selects how the index advances between frames: ModeRebuild
	// (from scratch, the prototype's choice), ModeStatic (frozen splits)
	// or ModeIncremental (merge/split rebalancing, §4.4).
	Mode qsim.TreeMode
	// EstimateMotion additionally aligns each frame to the previous one
	// with ICP before searching, so neighbor distances measure scene
	// change rather than ego motion.
	EstimateMotion bool
	// ICP tunes the motion estimator when EstimateMotion is set.
	ICP ICPConfig
	// Workers parallelizes the per-frame search (≤0 = GOMAXPROCS).
	Workers int
	// IngestWorkers parallelizes the per-frame index advance (build,
	// placement, rebalance): 0 resolves to GOMAXPROCS at use time, 1 = one
	// worker. Any setting yields a byte-identical index
	// (docs/performance.md).
	IngestWorkers int
	// Seed drives index construction sampling.
	Seed int64
	// Obs attaches an observability sink: each Process call records
	// per-frame software metrics (build/search wall seconds on the
	// monotonic clock, queries/sec, tree depth and bucket balance) into
	// the quicknn_pipeline_* families. nil disables instrumentation.
	Obs *obs.Sink
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.K <= 0 {
		c.K = 8
	}
	if c.BucketSize <= 0 {
		c.BucketSize = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FrameResult is the pipeline's output for one frame.
type FrameResult struct {
	// FrameIndex counts processed frames from zero.
	FrameIndex int
	// Neighbors holds, per point of this frame, its k nearest neighbors
	// in the previous frame (nil for the first frame).
	Neighbors [][]Neighbor
	// Motion is the estimated frame-to-previous-frame alignment when
	// PipelineConfig.EstimateMotion is set.
	Motion ICPResult
	// IndexStats describes the index's bucket balance after advancing.
	IndexStats Stats
}

// Pipeline drives the paper's successive-frame use case as a stream: feed
// frames in scan order; each Process call searches the new frame against
// the previous frame's index (optionally motion-compensated) and then
// advances the index under the configured maintenance mode. Not safe for
// concurrent use.
type Pipeline struct {
	cfg   PipelineConfig
	index *Index
	count int
}

// NewPipeline returns an empty pipeline; the first processed frame only
// builds the index.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// Index exposes the pipeline's current reference index (nil before the
// first frame).
func (p *Pipeline) Index() *Index { return p.index }

// Process ingests the next frame and returns its result. It delegates to
// ProcessCtx with a background context and panics on the errors ProcessCtx
// reports (an empty frame or a non-finite point).
func (p *Pipeline) Process(frame []Point) FrameResult {
	res, err := p.ProcessCtx(context.Background(), frame)
	if err != nil {
		panic("quicknn: Process: " + err.Error())
	}
	return res
}

// ProcessCtx ingests the next frame and returns its result. It is the
// error-returning, context-aware form of Process: an empty frame is
// rejected with ErrEmptyInput and a frame with a NaN or infinite
// coordinate with ErrInvalidPoint (the stream's frame counter does not
// advance, and the index stays on the previous frame), and ctx
// cancellation is honored mid-search — the per-frame kNN fan-out checks
// ctx between query chunks and returns ctx.Err(), leaving the index on
// the previous frame so the caller can retry or drop the frame.
func (p *Pipeline) ProcessCtx(ctx context.Context, frame []Point) (FrameResult, error) {
	if len(frame) == 0 {
		return FrameResult{}, fmt.Errorf("%w (frame %d is empty)", ErrEmptyInput, p.count)
	}
	if err := ctx.Err(); err != nil {
		return FrameResult{}, err
	}
	res := FrameResult{FrameIndex: p.count}
	if p.index == nil {
		sw := obs.StartStopwatch()
		if err := p.advance(frame); err != nil {
			return FrameResult{}, err
		}
		p.count++
		res.IndexStats = p.index.Stats()
		p.record(frame, sw.Seconds(), 0)
		return res, nil
	}
	queries := frame
	if p.cfg.EstimateMotion {
		res.Motion = EstimateMotion(p.index, frame, p.cfg.ICP)
		queries = res.Motion.Motion.ApplyAll(frame)
	}
	sw := obs.StartStopwatch()
	neighbors, err := p.index.QueryBatch(ctx, queries,
		QueryOptions{K: p.cfg.K, Workers: p.cfg.Workers})
	if err != nil {
		return FrameResult{}, err
	}
	res.Neighbors = neighbors
	searchSec := sw.Seconds()
	sw = obs.StartStopwatch()
	if err := p.advance(frame); err != nil {
		return FrameResult{}, err
	}
	p.count++
	res.IndexStats = p.index.Stats()
	p.record(frame, sw.Seconds(), searchSec)
	return res, nil
}

// record publishes one frame's software metrics: wall times on the
// monotonic clock (obs.MonotonicSeconds — the sanctioned host-clock
// boundary), throughput, and the index shape after advancing.
//
//quicknnlint:reporting wall seconds and throughput are host-side report values
func (p *Pipeline) record(frame []Point, buildSec, searchSec float64) {
	sink := p.cfg.Obs
	if sink == nil {
		return
	}
	reg := sink.Reg()
	reg.Counter("quicknn_pipeline_frames_total",
		"Frames processed by the software pipeline.").With().Inc()
	reg.Counter("quicknn_pipeline_points_total",
		"Points ingested by the software pipeline.").With().Add(int64(len(frame)))
	reg.Histogram("quicknn_pipeline_build_seconds",
		"Host wall seconds spent building/advancing the index per frame.",
		obs.TimeBuckets()).With().Observe(buildSec)
	if searchSec > 0 {
		reg.Histogram("quicknn_pipeline_search_seconds",
			"Host wall seconds spent searching a frame against the previous index.",
			obs.TimeBuckets()).With().Observe(searchSec)
		reg.Gauge("quicknn_pipeline_queries_per_second",
			"Software search throughput of the latest frame.").With().
			Set(float64(len(frame)) / searchSec)
	}
	// Per-phase ingest breakdown of the frame advance (docs/performance.md).
	// Only phases that actually ran are observed so the histograms stay
	// free of structural zeros (e.g. Splits is zero for every incremental
	// update).
	ing := p.index.IngestTiming()
	for _, ph := range [...]struct {
		name string
		sec  float64
	}{
		{"splits", ing.SplitsSeconds},
		{"plan", ing.PlanSeconds},
		{"scatter", ing.ScatterSeconds},
		{"place", ing.PlaceSeconds},
		{"rebalance", ing.RebalanceSeconds},
	} {
		if ph.sec > 0 {
			reg.Histogram("quicknn_ingest_phase_seconds",
				"Host wall seconds per ingest phase of the latest frame advance.",
				obs.TimeBuckets(), "phase").With(ph.name).Observe(ph.sec)
		}
	}
	if ing.Workers > 0 {
		reg.Gauge("quicknn_ingest_workers",
			"Ingest worker count used by the latest frame advance.").With().
			Set(float64(ing.Workers))
	}

	st := p.index.Stats()
	reg.Gauge("quicknn_pipeline_tree_depth",
		"Depth of the software index after advancing.").With().Set(float64(p.index.Depth()))
	reg.Gauge("quicknn_pipeline_bucket_mean",
		"Mean bucket occupancy of the software index.").With().Set(st.Mean)
	reg.Gauge("quicknn_pipeline_bucket_max",
		"Largest bucket of the software index.").With().Set(float64(st.Max))

	// One flight record per frame when the sink carries a recorder
	// (quicknn -flightrecord): the pipeline's phase split maps build/advance
	// onto the window slot and search onto the exec slot. ID and Epoch are
	// the 1-based frame count — the pipeline's epoch analog.
	sink.Fr().Record(obs.FlightRecord{
		ID:      uint64(p.count),
		Epoch:   uint64(p.count),
		Queries: uint32(len(frame)),
		Batch:   uint32(len(frame)),
		Mode:    uint8(ModeApprox),
		K:       uint16(p.cfg.K),
		Window:  buildSec,
		Exec:    searchSec,
		Total:   buildSec + searchSec,
		Outcome: obs.OutcomeOK,
	})
}

// advance moves the index to the new frame per the maintenance mode,
// building it on the first frame. On error the index stays on the
// previous frame.
func (p *Pipeline) advance(frame []Point) error {
	if p.index != nil {
		switch p.cfg.Mode {
		case qsim.ModeStatic:
			return p.index.UpdateStatic(frame)
		case qsim.ModeIncremental:
			return p.index.Update(frame)
		}
	}
	ix, err := BuildIndex(frame,
		WithBucketSize(p.cfg.BucketSize), WithSeed(p.cfg.Seed),
		WithParallelism(p.cfg.IngestWorkers))
	if err != nil {
		return err
	}
	p.index = ix
	return nil
}
