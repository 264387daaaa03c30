//go:build quicknn_faults

package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/faults"
)

// TestFrameCorruptSeamTruncatesDeterministically checks the FrameCorrupt
// seam in Advance: the ingested point count is exactly the deterministic
// prefix the plan's seed dictates, and an empty prefix surfaces as the
// typed quicknn.ErrEmptyInput — never a crash deeper in the build.
func TestFrameCorruptSeamTruncatesDeterministically(t *testing.T) {
	const seed, n = 21, 400
	// A twin plan with the same seed predicts the engine plan's firing
	// schedule visit by visit.
	oracle := faults.New(seed).Set(faults.FrameCorrupt, faults.Rule{Every: 1})
	e := NewEngine(Config{
		Faults: faults.New(seed).Set(faults.FrameCorrupt, faults.Rule{Every: 1}),
	})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		want := oracle.CorruptLen(n)
		info, err := e.Advance(context.Background(), taggedFrame(1, n, rng))
		if want == 0 {
			if !errors.Is(err, quicknn.ErrEmptyInput) {
				t.Fatalf("frame %d: fully corrupted frame = %v, want ErrEmptyInput", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: Advance: %v", i, err)
		}
		if info.Points != want {
			t.Fatalf("frame %d: ingested %d points, want deterministic prefix %d", i, info.Points, want)
		}
	}
}

// TestWorkerStallSeamDelaysQueries checks the WorkerStall seam in
// runRequest: a firing stall rule blocks the request's batch goroutine
// for the configured delay, visible as end-to-end latency.
func TestWorkerStallSeamDelaysQueries(t *testing.T) {
	plan := faults.New(3).Set(faults.WorkerStall, faults.Rule{Every: 1, Delay: 30 * time.Millisecond})
	e := NewEngine(Config{Workers: 1, Faults: plan})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(17))
	mustAdvance(t, e, 1, 200, rng)

	start := time.Now()
	if _, err := e.Do(context.Background(), Submission{Queries: []quicknn.Point{{X: 1}}, Opts: quicknn.QueryOptions{K: 1}}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("stalled query finished in %v, want >= 30ms", elapsed)
	}
	if plan.Fired(faults.WorkerStall) == 0 {
		t.Fatal("stall rule never fired")
	}
}

// TestBuildSlowSeamDelaysParallelIngest checks the BuildSlow seam in
// Advance with the parallel ingest engaged: a firing rule delays the
// frame advance by the configured amount before the multi-worker
// build/update runs, and the advance still produces a correct,
// fully-reported snapshot (phase timings do not absorb the injected
// delay — BuildSlow fires before the ingest stopwatch starts).
func TestBuildSlowSeamDelaysParallelIngest(t *testing.T) {
	const delay = 25 * time.Millisecond
	plan := faults.New(7).Set(faults.BuildSlow, faults.Rule{Every: 1, Delay: delay})
	e := NewEngine(Config{Maintenance: MaintIncremental, IngestWorkers: 4, Faults: plan})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(19))

	for f := 1; f <= 3; f++ {
		start := time.Now()
		info := mustAdvance(t, e, f, 4000, rng)
		if elapsed := time.Since(start); elapsed < delay {
			t.Fatalf("frame %d: advance finished in %v, want >= %v", f, elapsed, delay)
		}
		if info.IngestWorkers != 4 {
			t.Fatalf("frame %d ran with %d ingest workers, want 4", f, info.IngestWorkers)
		}
		if info.BuildSeconds >= delay.Seconds() {
			t.Fatalf("frame %d: BuildSeconds %v absorbed the injected %v delay",
				f, info.BuildSeconds, delay)
		}
	}
	if plan.Fired(faults.BuildSlow) == 0 {
		t.Fatal("BuildSlow rule never fired")
	}
}
