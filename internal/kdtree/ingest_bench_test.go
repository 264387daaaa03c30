package kdtree

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/lidar"
)

// The ingest benchmarks run on the workload the paper's update path is
// sized for: a full-resolution simulated street-scene LiDAR sweep with
// the fitted ground plane removed (~30-40k obstacle returns). Two poses
// a short drive apart give the frame-to-frame benchmark a realistic
// bucket drift. `make bench-ingest` compares the default-parallelism
// run against the checked-in one-worker (-cpu 1) baseline and gates the
// speedup via cmd/benchjson (docs/performance.md).
//
// The *OneWorker variants pin Config.Parallelism=1 inside the same run,
// so the fan-out's gain is also visible without the baseline file.

var (
	ingestFrameOnce sync.Once
	ingestFrameSet  [2][]geom.Point
)

func ingestBenchFrame(b *testing.B, i int) []geom.Point {
	b.Helper()
	ingestFrameOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		scene := lidar.NewScene(lidar.DefaultSceneConfig(), rng)
		sensor := lidar.NewSensor(lidar.DefaultSensorConfig(), rng)
		for k := range ingestFrameSet {
			pose := geom.Transform{
				Yaw:         0.03 * float64(k),
				Translation: geom.Point{X: float32(3 * k), Y: float32(k)},
			}
			f := sensor.Scan(scene, pose, k)
			ingestFrameSet[k] = lidar.RemoveGroundFitted(f, 0.3).Points
		}
	})
	frame := ingestFrameSet[i]
	if len(frame) < 20000 {
		b.Fatalf("bench frame %d has only %d points, want a ~30k-point sweep", i, len(frame))
	}
	return frame
}

func benchIngestBuild(b *testing.B, parallelism int) {
	frame := ingestBenchFrame(b, 0)
	cfg := Config{Parallelism: parallelism}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(frame, cfg, rand.New(rand.NewSource(1)))
	}
}

// BenchmarkIngestBuild is the full two-phase construction (sample +
// splits + placement) at the default worker count.
func BenchmarkIngestBuild(b *testing.B)          { benchIngestBuild(b, 0) }
func BenchmarkIngestBuildOneWorker(b *testing.B) { benchIngestBuild(b, 1) }

func benchIngestPlace(b *testing.B, parallelism int) {
	frame := ingestBenchFrame(b, 0)
	t := Build(frame, Config{Parallelism: parallelism}, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ResetBuckets()
		t.Place(frame)
	}
}

// BenchmarkIngestPlace is the static-tree per-frame work: refill every
// bucket through the existing splits (plan/scatter when parallel).
func BenchmarkIngestPlace(b *testing.B)          { benchIngestPlace(b, 0) }
func BenchmarkIngestPlaceOneWorker(b *testing.B) { benchIngestPlace(b, 1) }

func benchIngestRebalance(b *testing.B, parallelism int) {
	ref := ingestBenchFrame(b, 0)
	next := ingestBenchFrame(b, 1)
	pristine := Build(ref, Config{Parallelism: parallelism}, rand.New(rand.NewSource(1)))
	pristine.ResetBuckets()
	pristine.placeInto(next) // drifted frame through frame-0 splits
	lower, upper := pristine.cfg.BucketSize/2, pristine.cfg.BucketSize*2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := pristine.Clone()
		t.SetParallelism(parallelism)
		b.StartTimer()
		t.Rebalance(lower, upper)
	}
}

// BenchmarkIngestRebalance isolates the merge/split pass over a drifted
// frame placed through stale splits (paper-default bounds).
func BenchmarkIngestRebalance(b *testing.B)          { benchIngestRebalance(b, 0) }
func BenchmarkIngestRebalanceOneWorker(b *testing.B) { benchIngestRebalance(b, 1) }

func benchIngestFrame(b *testing.B, parallelism int) {
	ref := ingestBenchFrame(b, 0)
	next := ingestBenchFrame(b, 1)
	t := Build(ref, Config{Parallelism: parallelism}, rand.New(rand.NewSource(1)))
	t.UpdateFrame(next, 0, 0) // settle into the alternating steady state
	t.UpdateFrame(ref, 0, 0)
	frames := [2][]geom.Point{{}, {}}
	frames[0], frames[1] = next, ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.UpdateFrame(frames[i%2], 0, 0)
	}
}

// BenchmarkIngestFrame is the end-to-end incremental frame advance
// (reset + placement + rebalance), alternating two drifted sweeps.
func BenchmarkIngestFrame(b *testing.B)          { benchIngestFrame(b, 0) }
func BenchmarkIngestFrameOneWorker(b *testing.B) { benchIngestFrame(b, 1) }
