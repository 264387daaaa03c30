package kdtree

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/lidar"
	"github.com/quicknn/quicknn/internal/nn"
)

// Hot-path benchmarks: the steady-state query workload the zero-allocation
// work (docs/performance.md) targets. `make bench-hot` runs everything
// matching ^BenchmarkHot and cmd/benchjson turns the output into
// BENCH_hotpath.json, comparing against the checked-in pre-SoA baseline in
// testdata/bench_hotpath_baseline.txt.
//
// The workload mirrors hostperf.MeasureHost: a 20k-point synthetic LiDAR
// frame (street-scale xy extent, shallow z), 2048 query points, k=8,
// 256-point buckets — the paper's main operating point.

func benchCloud(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: rng.Float32()*100 - 50,
			Y: rng.Float32()*100 - 50,
			Z: rng.Float32() * 4,
		}
	}
	return pts
}

func benchTreeAndQueries(b *testing.B, n, q int) (*Tree, []geom.Point) {
	b.Helper()
	ref := benchCloud(n, 1)
	tree := Build(ref, Config{BucketSize: 256}, rand.New(rand.NewSource(2)))
	queries := benchCloud(q, 3)
	return tree, queries
}

// BenchmarkHotSearchAllApprox is the successive-frame workload: one op =
// the full 2048-query approximate batch.
func BenchmarkHotSearchAllApprox(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tree.SearchAllApprox(queries, 8)
		if len(res) != len(queries) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// BenchmarkHotSearchApprox is one approximate query per op.
func BenchmarkHotSearchApprox(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tree.SearchApprox(queries[i%len(queries)], 8)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHotSearchExact is one exact (backtracking) query per op.
func BenchmarkHotSearchExact(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tree.SearchExact(queries[i%len(queries)], 8)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHotSearchChecks is one budgeted best-bin-first query per op
// (the FLANN-style CPU baseline mode).
func BenchmarkHotSearchChecks(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tree.SearchChecks(queries[i%len(queries)], 8, 1024)
		if len(res) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHotSearchRadius is one radius query per op.
func BenchmarkHotSearchRadius(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.SearchRadius(queries[i%len(queries)], 1.5)
	}
}

// BenchmarkHotSearchAllExact is the exact batch workload (satellite fix:
// the per-query TopK hoisted out of the loop).
func BenchmarkHotSearchAllExact(b *testing.B) {
	tree, queries := benchTreeAndQueries(b, 20000, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tree.SearchAllExact(queries, 8)
		if len(res) != len(queries) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// The exact-frames pair runs the exact search the way perfbench's
// drive_rebuild_exact does: frame 1 of a simulated 30k-point LiDAR drive
// against a tree over frame 0 (256-point buckets, k=8), one op = one
// 1,000-query batch, cycling through the query frame. Each reports the
// work per query as points/query and buckets/query.
//
// BenchmarkHotSearchExactFrames is the production path, SearchBatch in
// BatchExact mode (the tight rule). BenchmarkHotSearchExactFramesPlane
// runs the same grouped order with the plane rule, which is the exact
// search before per-bucket boxes and the per-axis bound: the pair
// measures the pruning within one run, on one host.

const exactFramesBatch = 1000

var (
	exactFramesOnce sync.Once
	exactFramesTree *Tree
	exactFramesQry  []geom.Point
)

func exactFrames(b *testing.B) (*Tree, []geom.Point) {
	b.Helper()
	exactFramesOnce.Do(func() {
		ref, qry := lidar.FramePair(30000, 24)
		exactFramesTree = Build(ref, Config{BucketSize: 256, Parallelism: 1}, rand.New(rand.NewSource(1)))
		exactFramesQry = qry[:len(qry)/exactFramesBatch*exactFramesBatch]
	})
	return exactFramesTree, exactFramesQry
}

func benchExactFrames(b *testing.B, run func(t *Tree, batch []geom.Point, out [][]nn.Neighbor) SearchStats) {
	tree, qry := exactFrames(b)
	out := batchRegions(exactFramesBatch, 8)
	var total SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * exactFramesBatch % len(qry)
		for qi := range out {
			out[qi] = out[qi][:0]
		}
		total.Add(run(tree, qry[lo:lo+exactFramesBatch], out))
	}
	b.StopTimer()
	queries := float64(b.N * exactFramesBatch)
	b.ReportMetric(float64(total.PointsScanned)/queries, "points/query")
	b.ReportMetric(float64(total.BucketsVisited)/queries, "buckets/query")
}

func BenchmarkHotSearchExactFrames(b *testing.B) {
	benchExactFrames(b, func(t *Tree, batch []geom.Point, out [][]nn.Neighbor) SearchStats {
		st, _, _ := t.SearchBatch(batch, BatchSpec{Mode: BatchExact, K: 8}, 1, out, nil)
		return st
	})
}

func BenchmarkHotSearchExactFramesPlane(b *testing.B) {
	s := NewScratch()
	pl := new(batchPlan)
	benchExactFrames(b, func(t *Tree, batch []geom.Point, out [][]nn.Neighbor) SearchStats {
		var st SearchStats
		t.plan(batch, pl)
		for _, qi := range pl.order {
			s.initCands(8)
			t.searchExactCore(batch[qi], planeBounds, s, &st, nil, nil)
			out[qi] = t.appendCands(out[qi], s.cands)
		}
		return st
	})
}
