package quicknn_test

import (
	"context"
	"testing"

	"github.com/quicknn/quicknn"
)

// Allocation guards for the public hot path: QueryInto with a warm
// Scratch, a caller-owned dst, and an uncancellable context performs zero
// heap allocations per query (docs/performance.md).

func allocIndexAndQueries(t *testing.T) (*quicknn.Index, []quicknn.Point) {
	t.Helper()
	ix, err := quicknn.BuildIndex(hotCloud(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	return ix, hotCloud(256, 3)
}

func TestQueryIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	ix, queries := allocIndexAndQueries(t)
	ctx := context.Background()
	sc := quicknn.NewScratch()
	dst := make([]quicknn.Neighbor, 0, 64)
	qi := 0
	for _, tc := range []struct {
		name string
		opts quicknn.QueryOptions
	}{
		{"approx", quicknn.QueryOptions{K: 10}},
		{"exact", quicknn.QueryOptions{K: 10, Mode: quicknn.ModeExact}},
		{"checks", quicknn.QueryOptions{K: 10, Mode: quicknn.ModeChecks, Checks: 1024}},
	} {
		var work int
		fn := func() {
			var err error
			dst, err = ix.QueryInto(ctx, queries[qi%len(queries)], tc.opts, sc, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			// Reading the per-query work stats is part of the recorded hot
			// path (internal/serve accumulates them per request) and must
			// stay inside the zero-allocation envelope.
			st := sc.LastStats()
			work += st.TraversalSteps + st.PointsScanned + st.BucketsVisited + st.CandInserts
			qi++
		}
		fn() // warm-up
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("QueryInto/%s: %v allocs/op, want 0", tc.name, allocs)
		}
		st := sc.LastStats()
		if st.TraversalSteps == 0 || st.PointsScanned == 0 || st.BucketsVisited == 0 || st.CandInserts == 0 {
			t.Errorf("QueryInto/%s: LastStats not populated: %+v", tc.name, st)
		}
		if work == 0 {
			t.Errorf("QueryInto/%s: no work accumulated", tc.name)
		}
	}
}

// TestQueryBatchIntoZeroAllocs guards the one batch entry point the
// serving engine runs every request through: at one worker, with a warm
// pool, caller-owned result regions and an uncancellable context, the
// k-bounded modes make no allocation per call, and the summed work
// counters come back populated.
func TestQueryBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	ix, queries := allocIndexAndQueries(t)
	ctx := context.Background()
	const k = 8
	backing := make([]quicknn.Neighbor, len(queries)*k)
	results := make([][]quicknn.Neighbor, len(queries))
	for _, tc := range []struct {
		name string
		opts quicknn.QueryOptions
	}{
		{"approx", quicknn.QueryOptions{K: k, Workers: 1}},
		{"exact", quicknn.QueryOptions{K: k, Mode: quicknn.ModeExact, Workers: 1}},
	} {
		var work quicknn.QueryStats
		fn := func() {
			for qi := range results {
				results[qi] = backing[qi*k : qi*k : (qi+1)*k]
			}
			var err error
			work, err = ix.QueryBatchInto(ctx, queries, tc.opts, results)
			if err != nil {
				t.Fatal(err)
			}
		}
		fn() // warm-up
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("QueryBatchInto/%s: %v allocs/op, want 0", tc.name, allocs)
		}
		if work.TraversalSteps == 0 || work.PointsScanned == 0 || work.BucketsVisited < len(queries) || work.CandInserts == 0 {
			t.Errorf("QueryBatchInto/%s: work counters not populated: %+v", tc.name, work)
		}
	}
}

// TestQueryBatchMatchesQuery pins the flat-backing batch path (serial and
// parallel) to per-query Query results.
func TestQueryBatchMatchesQuery(t *testing.T) {
	ix, queries := allocIndexAndQueries(t)
	ctx := context.Background()
	for _, opts := range []quicknn.QueryOptions{
		{K: 10},
		{K: 10, Mode: quicknn.ModeExact},
		{K: 3, Mode: quicknn.ModeChecks, Checks: 512},
		{Mode: quicknn.ModeRadius, Radius: 2},
	} {
		for _, workers := range []int{1, 4} {
			o := opts
			o.Workers = workers
			batch, err := ix.QueryBatch(ctx, queries, o)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want, err := ix.Query(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch[qi]) != len(want) {
					t.Fatalf("mode %v workers %d query %d: %d neighbors, want %d",
						opts.Mode, workers, qi, len(batch[qi]), len(want))
				}
				for i := range want {
					if batch[qi][i] != want[i] {
						t.Fatalf("mode %v workers %d query %d neighbor %d: %+v, want %+v",
							opts.Mode, workers, qi, i, batch[qi][i], want[i])
					}
				}
			}
		}
	}
}

// TestQueryIntoCancelled checks the documented cancellation contract:
// dst comes back unextended alongside ctx.Err().
func TestQueryIntoCancelled(t *testing.T) {
	ix, queries := allocIndexAndQueries(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := quicknn.NewScratch()
	dst := make([]quicknn.Neighbor, 2, 16)
	out, err := ix.QueryInto(ctx, queries[0], quicknn.QueryOptions{K: 5, Mode: quicknn.ModeExact}, sc, dst)
	if err == nil {
		t.Fatal("want context error, got nil")
	}
	if len(out) != len(dst) {
		t.Fatalf("dst extended on cancellation: len %d, want %d", len(out), len(dst))
	}
}

// TestQueryIntoRequiresScratch checks the option-error path for a nil
// scratch rather than a panic deep in the tree.
func TestQueryIntoRequiresScratch(t *testing.T) {
	ix, queries := allocIndexAndQueries(t)
	_, err := ix.QueryInto(context.Background(), queries[0], quicknn.QueryOptions{K: 5}, nil, nil)
	if err == nil {
		t.Fatal("want ErrInvalidOptions for nil scratch, got nil")
	}
}
