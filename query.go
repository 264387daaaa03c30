package quicknn

import (
	"context"
	"fmt"
	"runtime"

	"github.com/quicknn/quicknn/internal/kdtree"
)

// QueryMode selects which of the paper's search algorithms a Query runs.
type QueryMode int

const (
	// ModeApprox is the paper's single-bucket approximate search (the
	// hardware TSearch datapath): traverse to the query's bucket and scan
	// only it. The default.
	ModeApprox QueryMode = iota
	// ModeExact is the exact k-nearest-neighbor search via backtracking.
	ModeExact
	// ModeChecks is the FLANN-style budgeted search: explore the nearest
	// deferred branches until QueryOptions.Checks reference points have
	// been examined.
	ModeChecks
	// ModeRadius returns every point within QueryOptions.Radius of the
	// query (exact, via backtracking), nearest first. K is ignored.
	ModeRadius
)

// String names the mode for logs and errors.
func (m QueryMode) String() string {
	switch m {
	case ModeApprox:
		return "approx"
	case ModeExact:
		return "exact"
	case ModeChecks:
		return "checks"
	case ModeRadius:
		return "radius"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// QueryOptions parameterizes Query and QueryBatch. The zero value is a
// valid approximate search except for K, which must be positive in every
// mode but ModeRadius.
type QueryOptions struct {
	// K is the number of neighbors returned (ignored by ModeRadius).
	K int
	// Mode selects the search algorithm (default ModeApprox).
	Mode QueryMode
	// Checks is the reference-point budget of ModeChecks.
	Checks int
	// Radius is the search radius of ModeRadius, in meters.
	Radius float64
	// Workers bounds the parallel fan-out of QueryBatch and
	// QueryBatchInto (<= 0 = GOMAXPROCS). Single-query Query ignores it.
	Workers int
}

// validate reports the first out-of-domain option.
func (o QueryOptions) validate() error {
	switch o.Mode {
	case ModeApprox, ModeExact, ModeChecks:
		if o.K <= 0 {
			return fmt.Errorf("%w: K = %d must be > 0 for mode %v", ErrInvalidOptions, o.K, o.Mode)
		}
		if o.Mode == ModeChecks && o.Checks < 0 {
			return fmt.Errorf("%w: Checks = %d must be >= 0", ErrInvalidOptions, o.Checks)
		}
	case ModeRadius:
		if o.Radius < 0 {
			return fmt.Errorf("%w: Radius = %g must be >= 0", ErrInvalidOptions, o.Radius)
		}
	default:
		return fmt.Errorf("%w: unknown query mode %v", ErrInvalidOptions, o.Mode)
	}
	return nil
}

// Query runs one search against the index under the given options. It is
// the unified, context-aware entry point behind the Search/SearchExact/
// SearchChecks/SearchRadius wrappers: invalid options surface as errors
// wrapping ErrInvalidOptions, and ctx cancellation is honored between
// bucket visits (the backtracking modes poll ctx once per bucket scan),
// returning ctx.Err(). Concurrent Query calls are safe as long as no
// Update runs concurrently.
//
// Query borrows a pooled Scratch, so it allocates only the returned
// slice; callers on the hot path can go all the way to zero allocations
// with QueryInto.
func (ix *Index) Query(ctx context.Context, q Point, opts QueryOptions) ([]Neighbor, error) {
	sc := getQueryScratch()
	res, err := ix.QueryInto(ctx, q, opts, sc, nil)
	putQueryScratch(sc)
	return res, err
}

// QueryInto is the allocation-free form of Query: results are appended to
// dst (which may be nil) and all traversal state lives in sc. With a warm
// Scratch, a dst of capacity >= K, and an uncancellable ctx
// (context.Background), the non-radius modes perform zero heap
// allocations per call — the property the AllocsPerRun guards in
// hotpath_alloc_test.go pin.
//
// On error (including cancellation) dst is returned unextended; a nil
// dst comes back nil.
func (ix *Index) QueryInto(ctx context.Context, q Point, opts QueryOptions, sc *Scratch, dst []Neighbor) ([]Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := opts.validate(); err != nil {
		return dst, err
	}
	if sc == nil || sc.s == nil {
		return dst, fmt.Errorf("%w: QueryInto requires a Scratch from NewScratch", ErrInvalidOptions)
	}
	// Only pay for the cancellation closure when ctx can actually be
	// cancelled: Background/TODO have a nil Done channel, and the kdtree
	// searches treat a nil stop as "never".
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	var (
		res     []Neighbor
		st      kdtree.SearchStats
		stopped bool
	)
	switch opts.Mode {
	case ModeApprox:
		res, st = ix.tree.SearchApproxInto(q, opts.K, sc.s, dst)
	case ModeExact:
		res, st, stopped = ix.tree.SearchExactStopInto(q, opts.K, sc.s, dst, stop)
	case ModeChecks:
		res, st, stopped = ix.tree.SearchChecksStopInto(q, opts.K, opts.Checks, sc.s, dst, stop)
	case ModeRadius:
		res, st, stopped = ix.tree.SearchRadiusStopInto(q, opts.Radius, sc.s, dst, stop)
	}
	sc.last = QueryStats{
		TraversalSteps: st.TraversalSteps,
		PointsScanned:  st.PointsScanned,
		BucketsVisited: st.BucketsVisited,
		CandInserts:    sc.s.CandInserts(),
	}
	if stopped {
		return res, ctx.Err()
	}
	return res, nil
}

// batchSpec maps the options onto the k-d tree's batch runner.
func (o QueryOptions) batchSpec() kdtree.BatchSpec {
	spec := kdtree.BatchSpec{K: o.K, Checks: o.Checks, Radius: o.Radius}
	switch o.Mode {
	case ModeExact:
		spec.Mode = kdtree.BatchExact
	case ModeChecks:
		spec.Mode = kdtree.BatchChecks
	case ModeRadius:
		spec.Mode = kdtree.BatchRadius
	}
	return spec
}

// QueryBatch runs one search per query under the given options and
// returns a slice parallel to queries. It is QueryBatchInto over freshly
// allocated result regions: in the k-bounded modes every result neighbor
// lives in one flat backing array (len(queries)*K records) and out[qi] is
// a capacity-capped view of its stride-K region, so no per-query slice is
// allocated; ModeRadius, whose result count is data-dependent, grows
// per-query slices. On error (including cancellation) the result is nil.
func (ix *Index) QueryBatch(ctx context.Context, queries []Point, opts QueryOptions) ([][]Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return [][]Neighbor{}, nil
	}
	out := make([][]Neighbor, len(queries))
	if opts.Mode != ModeRadius {
		k := opts.K
		backing := make([]Neighbor, len(queries)*k)
		for qi := range out {
			out[qi] = backing[qi*k : qi*k : (qi+1)*k]
		}
	}
	if _, err := ix.QueryBatchInto(ctx, queries, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryBatchInto is the caller-owned form of QueryBatch and the one
// batch entry point of the read path: query qi's neighbors are appended
// to results[qi], and the summed work of all queries is returned. Every
// mode runs on the k-d tree's leaf-grouped batch executor
// (docs/performance.md): queries are pre-sorted by primary bucket, so
// each arena span is scanned while cache-hot for all of its queries, and
// the grouped order is fanned out over up to opts.Workers goroutines
// (GOMAXPROCS when <= 0; at most one per 16 queries, the calling
// goroutine included). Grouping is a pure reordering: answers and stats
// equal per-query QueryInto calls exactly.
//
// In the k-bounded modes each results[qi] should have capacity for K
// more neighbors and, with more than one worker, must not alias another
// query's region; with such regions, one worker, a warm pool and an
// uncancellable ctx (context.Background) the call performs zero heap
// allocations. ctx is polled whenever a worker enters a new leaf group
// and, in the backtracking modes, before every bucket scan; cancellation
// abandons the batch with ctx.Err(), leaving results partially filled.
func (ix *Index) QueryBatchInto(ctx context.Context, queries []Point, opts QueryOptions, results [][]Neighbor) (QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return QueryStats{}, err
	}
	if err := opts.validate(); err != nil {
		return QueryStats{}, err
	}
	if len(results) < len(queries) {
		return QueryStats{}, fmt.Errorf("%w: %d result regions for %d queries", ErrInvalidOptions, len(results), len(queries))
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	st, inserts, stopped := ix.tree.SearchBatch(queries, opts.batchSpec(), workers, results, stop)
	work := QueryStats{
		TraversalSteps: st.TraversalSteps,
		PointsScanned:  st.PointsScanned,
		BucketsVisited: st.BucketsVisited,
		CandInserts:    inserts,
	}
	if stopped {
		return work, ctx.Err()
	}
	return work, nil
}
