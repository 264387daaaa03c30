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

// TestAdvanceReportsIngestPhases checks FrameInfo's per-phase breakdown
// across the three maintenance shapes: a rebuild carries splits plus
// placement, an incremental update carries placement plus rebalance and
// no splits, and placement reports its plan/scatter split. Frames are
// large enough (>= the multi-worker placement threshold) that
// IngestWorkers > 1 actually engages the fan-out.
func TestAdvanceReportsIngestPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine(Config{Maintenance: MaintIncremental, IngestWorkers: 3})
	defer e.Close(context.Background())

	first := mustAdvance(t, e, 1, 6000, rng)
	if first.SplitsSeconds <= 0 || first.PlaceSeconds <= 0 {
		t.Fatalf("first frame (build): splits=%v place=%v, want both > 0",
			first.SplitsSeconds, first.PlaceSeconds)
	}
	if first.IngestWorkers != 3 {
		t.Fatalf("first frame ran with %d workers, want 3", first.IngestWorkers)
	}
	if first.PlanSeconds <= 0 || first.ScatterSeconds <= 0 {
		t.Fatalf("placement: plan=%v scatter=%v, want both > 0",
			first.PlanSeconds, first.ScatterSeconds)
	}

	next := mustAdvance(t, e, 2, 6000, rng)
	if next.SplitsSeconds != 0 {
		t.Fatalf("incremental update reported splits=%v, want 0", next.SplitsSeconds)
	}
	if next.PlaceSeconds <= 0 || next.RebalanceSeconds <= 0 {
		t.Fatalf("incremental update: place=%v rebalance=%v, want both > 0",
			next.PlaceSeconds, next.RebalanceSeconds)
	}
	if next.IngestWorkers != 3 {
		t.Fatalf("incremental update ran with %d workers, want 3", next.IngestWorkers)
	}
}

// TestAdvanceOneWorkerIngestReportsPlanScatter pins the one-worker
// shape: IngestWorkers=1 runs the same plan/scatter placement inline, so
// Plan and Scatter are reported next to the total placement time.
func TestAdvanceOneWorkerIngestReportsPlanScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEngine(Config{Maintenance: MaintStatic, IngestWorkers: 1})
	defer e.Close(context.Background())
	mustAdvance(t, e, 1, 4000, rng)
	info := mustAdvance(t, e, 2, 4000, rng)
	if info.PlanSeconds <= 0 || info.ScatterSeconds <= 0 {
		t.Fatalf("one-worker ingest reported plan=%v scatter=%v, want both > 0",
			info.PlanSeconds, info.ScatterSeconds)
	}
	if info.PlaceSeconds <= 0 {
		t.Fatalf("one-worker ingest reported place=%v, want > 0", info.PlaceSeconds)
	}
	if info.IngestWorkers != 1 {
		t.Fatalf("one-worker ingest ran with %d workers, want 1", info.IngestWorkers)
	}
}

// TestIngestMetricsPublished checks the quicknn_ingest_* families: after
// a parallel rebuild plus an incremental update, every phase histogram
// that ran has observations and the workers gauge reflects the knob.
func TestIngestMetricsPublished(t *testing.T) {
	sink := obs.NewSink("serve-ingest-test")
	rng := rand.New(rand.NewSource(9))
	e := NewEngine(Config{Maintenance: MaintIncremental, IngestWorkers: 2, Obs: sink})
	defer e.Close(context.Background())
	mustAdvance(t, e, 1, 6000, rng)
	mustAdvance(t, e, 2, 6000, rng)

	snap := sink.Reg().Snapshot()
	fam, ok := snap.Find("quicknn_ingest_phase_seconds")
	if !ok {
		t.Fatal("quicknn_ingest_phase_seconds not registered")
	}
	for _, phase := range []string{"splits", "plan", "scatter", "place", "rebalance"} {
		s, ok := fam.Find(phase)
		if !ok || s.Count == 0 {
			t.Fatalf("phase %q: no observations (found=%v)", phase, ok)
		}
	}
	wfam, ok := snap.Find("quicknn_ingest_workers")
	if !ok {
		t.Fatal("quicknn_ingest_workers not registered")
	}
	ws, ok := wfam.Find()
	if !ok || ws.Gauge != 2 {
		t.Fatalf("quicknn_ingest_workers = %v (found=%v), want 2", ws.Gauge, ok)
	}
}

// TestParallelIngestConcurrentWithQueries is the parallel-ingest epoch
// race test: incremental frame advances with a multi-worker ingest run
// against a pool of concurrent query workers. Under -race this drives
// the ingest fan-out goroutines (plan chunks, scatter shards, staged
// rebalance) while readers search the previous epoch — the epoch
// snapshot must keep them fully disjoint. Every query must succeed and
// carry a single frame tag (no torn epochs).
func TestParallelIngestConcurrentWithQueries(t *testing.T) {
	const (
		queryWorkers = 4
		frameSwaps   = 10
		framePoints  = 4000
	)
	e := NewEngine(Config{
		QueueDepth:  4096,
		MaxBatch:    32,
		MaxWindow:   300 * time.Microsecond,
		Workers:     2,
		Maintenance: MaintIncremental,
		// Force the parallel ingest path even on single-CPU hosts.
		IngestWorkers: 4,
	})
	rng := rand.New(rand.NewSource(11))
	mustAdvance(t, e, 1, framePoints, rng)

	var (
		stopQueries atomic.Bool
		served      atomic.Int64
		wg          sync.WaitGroup
	)
	errs := make(chan error, queryWorkers)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			queries := make([]quicknn.Point, 8)
			for !stopQueries.Load() {
				for i := range queries {
					queries[i] = quicknn.Point{X: qrng.Float32() * 100, Y: qrng.Float32() * 100}
				}
				res, err := e.QueryBatch(context.Background(), queries, quicknn.QueryOptions{K: 4})
				if err != nil {
					errs <- err
					return
				}
				for _, nbs := range res {
					tag := nbs[0].Point.Z
					for _, nb := range nbs[1:] {
						if nb.Point.Z != tag {
							t.Errorf("cross-epoch neighbors: tags %v and %v", tag, nb.Point.Z)
						}
					}
				}
				served.Add(int64(len(queries)))
			}
		}(int64(100 + w))
	}

	for f := 2; f <= frameSwaps; f++ {
		info := mustAdvance(t, e, f, framePoints, rng)
		if info.IngestWorkers != 4 {
			t.Fatalf("frame %d ran with %d ingest workers, want 4", f, info.IngestWorkers)
		}
	}
	stopQueries.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query worker failed: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no queries served during the frame swaps")
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestConfigNegativeIngestWorkersTreatedAsDefault pins the documented
// clamp: a negative IngestWorkers resolves to the GOMAXPROCS default
// instead of erroring out of the first Advance.
func TestConfigNegativeIngestWorkersTreatedAsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEngine(Config{IngestWorkers: -5})
	defer e.Close(context.Background())
	info := mustAdvance(t, e, 1, 500, rng)
	if info.IngestWorkers < 1 {
		t.Fatalf("IngestWorkers = %d, want >= 1", info.IngestWorkers)
	}
}
