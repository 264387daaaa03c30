package quicknn_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// Root-level hot-path benchmarks: the public Query/QueryBatch surface the
// serving engine fans queries through. One op of BenchmarkHotQueryBatch is
// the full 2048-query batch; BenchmarkHotQuery is a single query. See
// docs/performance.md and `make bench-hot`.

func hotCloud(n int, seed int64) []quicknn.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]quicknn.Point, n)
	for i := range pts {
		pts[i] = quicknn.Point{
			X: rng.Float32()*100 - 50,
			Y: rng.Float32()*100 - 50,
			Z: rng.Float32() * 4,
		}
	}
	return pts
}

func hotIndexAndQueries(b *testing.B, n, q int) (*quicknn.Index, []quicknn.Point) {
	b.Helper()
	ix, err := quicknn.BuildIndex(hotCloud(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	return ix, hotCloud(q, 3)
}

// BenchmarkHotQueryBatch is the serving-shaped workload: a 2048-query
// approximate batch fanned out across 4 workers.
func BenchmarkHotQueryBatch(b *testing.B) {
	ix, queries := hotIndexAndQueries(b, 20000, 2048)
	ctx := context.Background()
	opts := quicknn.QueryOptions{K: 8, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.QueryBatch(ctx, queries, opts)
		if err != nil || len(res) != len(queries) {
			b.Fatalf("res %d err %v", len(res), err)
		}
	}
}

// BenchmarkHotQueryBatchSerial is the same batch on one worker — the
// number that isolates per-query cost from fan-out overhead.
func BenchmarkHotQueryBatchSerial(b *testing.B) {
	ix, queries := hotIndexAndQueries(b, 20000, 2048)
	ctx := context.Background()
	opts := quicknn.QueryOptions{K: 8, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.QueryBatch(ctx, queries, opts)
		if err != nil || len(res) != len(queries) {
			b.Fatalf("res %d err %v", len(res), err)
		}
	}
}

// BenchmarkHotQuery is one approximate query per op through the public
// context-aware entry point.
func BenchmarkHotQuery(b *testing.B) {
	ix, queries := hotIndexAndQueries(b, 20000, 2048)
	ctx := context.Background()
	opts := quicknn.QueryOptions{K: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.Query(ctx, queries[i%len(queries)], opts)
		if err != nil || len(res) == 0 {
			b.Fatalf("res %d err %v", len(res), err)
		}
	}
}

// The flight-recorder overhead pair: one op is an 8-query request run
// as one QueryBatchInto call into caller-owned regions — the serving
// engine's per-request unit of work. hotRecordRequest is the shared
// body; it returns the request's summed work counters.
const hotRecordQueries = 8

func hotRecordRequest(b *testing.B, ix *quicknn.Index, queries []quicknn.Point, i int, results [][]quicknn.Neighbor, backing []quicknn.Neighbor) quicknn.QueryStats {
	const k = 8
	lo := (i * hotRecordQueries) % len(queries)
	for qi := range results {
		results[qi] = backing[qi*k : qi*k : (qi+1)*k]
	}
	work, err := ix.QueryBatchInto(context.Background(), queries[lo:lo+hotRecordQueries],
		quicknn.QueryOptions{K: k, Workers: 1}, results)
	if err != nil {
		b.Fatal(err)
	}
	return work
}

// BenchmarkHotFlightRecordOff is the baseline half of the overhead pair:
// the 8-query request with recording disabled. cmd/benchjson gates
// On/Off at MAX_OVERHEAD in `make bench-hot`.
func BenchmarkHotFlightRecordOff(b *testing.B) {
	ix, queries := hotIndexAndQueries(b, 20000, 2048)
	results := make([][]quicknn.Neighbor, hotRecordQueries)
	backing := make([]quicknn.Neighbor, hotRecordQueries*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotRecordRequest(b, ix, queries, i, results, backing)
	}
}

// BenchmarkHotFlightRecordOn adds the full per-request recording work the
// serving engine performs: a stopwatch, the request's summed work
// counters, flight-record assembly, the ring write, and the tail-sampler
// update.
func BenchmarkHotFlightRecordOn(b *testing.B) {
	ix, queries := hotIndexAndQueries(b, 20000, 2048)
	results := make([][]quicknn.Neighbor, hotRecordQueries)
	backing := make([]quicknn.Neighbor, hotRecordQueries*8)
	fr := obs.NewFlightRecorder(1024)
	tail := obs.NewTailSampler(0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := obs.StartStopwatch()
		work := hotRecordRequest(b, ix, queries, i, results, backing)
		total := sw.Seconds()
		fr.Record(obs.FlightRecord{
			ID: uint64(i + 1), Epoch: 1,
			Queries: hotRecordQueries, Batch: hotRecordQueries,
			K: 8, Exec: total, Total: total,
			TraversalSteps: uint32(work.TraversalSteps), BucketsVisited: uint32(work.BucketsVisited),
			PointsScanned: uint32(work.PointsScanned), CandInserts: uint32(work.CandInserts),
			Outcome: obs.OutcomeOK,
		})
		tail.Observe(total)
	}
}
