package kdtree

import (
	"sync"
	"sync/atomic"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// Leaf-grouped batch execution (docs/performance.md).
//
// A successive-frame batch issues thousands of queries against an arena
// that is larger than L2, and the per-query search order visits buckets
// effectively at random — so nearly every bucket scan streams its span in
// from L3/DRAM and the batch spends more time waiting on loads than
// computing distances. The batch planner removes that stall: it first
// descends every query to its primary leaf (a pass that touches only the
// small, cache-resident node array), then counting-sorts the query indices
// by bucket and executes them group by group, so each arena span is
// fetched once per batch and scanned while L1-resident for all of its
// queries. The backtracking modes profit too: co-located queries
// backtrack into largely overlapping bucket sets.
//
// Grouping is a pure reordering. Each query's result is a function of
// (tree, query) alone and is written to its own results[qi] region, and
// the summed SearchStats are order-independent, so the output is
// byte-identical to running the queries one by one (the equivalence suite
// asserts exactly that).

// BatchMode selects the search SearchBatch runs for every query.
type BatchMode uint8

const (
	// BatchApprox scans each query's primary bucket only (SearchApprox).
	BatchApprox BatchMode = iota
	// BatchExact runs the full backtracking search (SearchExact).
	BatchExact
	// BatchChecks runs the best-bin-first search under a reference-point
	// budget (SearchChecks).
	BatchChecks
	// BatchRadius collects every point within a radius (SearchRadius).
	BatchRadius
)

// BatchSpec parameterizes SearchBatch: the mode plus the knobs it reads.
type BatchSpec struct {
	Mode BatchMode
	// K is the neighbor count of the k-bounded modes (must be > 0 there).
	K int
	// Checks is BatchChecks' reference-point budget.
	Checks int
	// Radius is BatchRadius' search radius.
	Radius float64
}

// batchRun is the number of queries of the grouped order a batch worker
// claims per atomic fetch: runs keep a group's locality within one
// worker, yet split a large group — one dense cluster — across workers;
// the worker count is capped at one per run.
const batchRun = 16

// batchPlan is the reusable grouped execution order for one query batch.
type batchPlan struct {
	leaf   []int32 // per-query primary bucket id
	depth  []int32 // per-query descent depth (traversal steps)
	starts []int32 // group start offsets into order, len = len(buckets)+1
	cursor []int32 // scatter cursors (planning scratch)
	order  []int32 // query indices, grouped by primary bucket
}

// batchPlanPool recycles plans across batches: after warm-up a plan of
// sufficient capacity is reused allocation-free.
var batchPlanPool = sync.Pool{New: func() interface{} { return new(batchPlan) }}

// sized32 returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified.
func sized32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// plan fills pl with the leaf-grouped order of queries: after the call,
// pl.order[pl.starts[b]:pl.starts[b+1]] lists (in ascending query order)
// the indices of every query whose primary leaf is bucket b.
func (t *Tree) plan(queries []geom.Point, pl *batchPlan) {
	n := len(queries)
	nb := len(t.buckets)
	pl.leaf = sized32(pl.leaf, n)
	pl.depth = sized32(pl.depth, n)
	pl.order = sized32(pl.order, n)
	pl.starts = sized32(pl.starts, nb+1)
	pl.cursor = sized32(pl.cursor, nb)
	for i := range pl.starts {
		pl.starts[i] = 0
	}
	// Descent pass: only the node array is touched, so it stays cached
	// across all n descents.
	for qi, q := range queries {
		_, b, depth := t.FindLeaf(q)
		pl.leaf[qi] = b
		pl.depth[qi] = int32(depth)
		pl.starts[b+1]++
	}
	for b := 0; b < nb; b++ {
		pl.starts[b+1] += pl.starts[b]
		pl.cursor[b] = pl.starts[b]
	}
	for qi := 0; qi < n; qi++ {
		b := pl.leaf[qi]
		pl.order[pl.cursor[b]] = int32(qi)
		pl.cursor[b]++
	}
}

// SearchBatch runs spec's search for every query, appending query qi's
// neighbors to results[qi]. In the k-bounded modes results[qi] should be
// a caller-provided region with capacity for K more entries (regions of
// one flat backing array in practice), so nothing reallocates;
// BatchRadius appends as many matches as it finds. Queries execute in
// leaf-grouped order, fanned out over up to workers goroutines (at most
// one per batchRun queries; the caller's goroutine is one of them) —
// callers must then ensure the results regions do not alias. Per-query
// output, the summed stats and the summed candidate-insert count are
// identical to calling the matching *Into search per query and adding up
// its stats and Scratch.CandInserts.
//
// stop, when non-nil, is polled whenever a worker enters a new leaf group
// and, in the backtracking modes, before every bucket scan; a true return
// abandons the batch (stopped=true, results partially filled).
func (t *Tree) SearchBatch(queries []geom.Point, spec BatchSpec, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, inserts int, stopped bool) {
	n := len(queries)
	if n == 0 {
		return SearchStats{}, 0, false
	}
	pl := batchPlanPool.Get().(*batchPlan)
	defer batchPlanPool.Put(pl)
	t.plan(queries, pl)
	workers = min(workers, (n+batchRun-1)/batchRun)
	if workers <= 1 {
		s := getScratch()
		defer putScratch(s)
		return t.runOrder(queries, spec, pl, pl.order, s, results, stop)
	}
	return t.fanOut(queries, spec, pl, workers, results, stop)
}

// fanOut runs pl's grouped order on workers goroutines, the caller's
// included, each claiming batchRun-query runs until the order is
// exhausted or a run stops. Kept apart from SearchBatch so the one-worker
// path never heap-allocates the shared state the goroutines capture.
func (t *Tree) fanOut(queries []geom.Point, spec BatchSpec, pl *batchPlan, workers int, results [][]nn.Neighbor, stop func() bool) (SearchStats, int, bool) {
	n := len(queries)
	var (
		next    atomic.Int64
		aborted atomic.Bool
		mu      sync.Mutex
		wg      sync.WaitGroup
		stats   SearchStats
		inserts int
	)
	work := func() {
		s := getScratch()
		defer putScratch(s)
		var local SearchStats
		localIns := 0
		for !aborted.Load() {
			lo := int(next.Add(batchRun)) - batchRun
			if lo >= n {
				break
			}
			hi := min(lo+batchRun, n)
			st, ins, stp := t.runOrder(queries, spec, pl, pl.order[lo:hi], s, results, stop)
			local.Add(st)
			localIns += ins
			if stp {
				aborted.Store(true)
			}
		}
		mu.Lock()
		stats.Add(local)
		inserts += localIns
		mu.Unlock()
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return stats, inserts, aborted.Load()
}

// runOrder executes the queries listed in order — a run of pl's grouped
// order — on one goroutine with scratch s.
func (t *Tree) runOrder(queries []geom.Point, spec BatchSpec, pl *batchPlan, order []int32, s *Scratch, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, inserts int, stopped bool) {
	group := int32(-1)
	for _, qi := range order {
		if b := pl.leaf[qi]; b != group {
			group = b
			if stop != nil && stop() {
				return stats, inserts, true
			}
		}
		q := queries[qi]
		switch spec.Mode {
		case BatchApprox:
			// The plan already descended: scan the primary bucket.
			s.initCands(spec.K)
			stats.PointsScanned += t.scanBucket(group, q, s)
			stats.TraversalSteps += int(pl.depth[qi])
			stats.BucketsVisited++
		case BatchExact:
			s.initCands(spec.K)
			if t.searchExactCore(q, tightBounds, s, &stats, stop, nil) {
				return stats, inserts, true
			}
		case BatchChecks:
			// The budget counts this query's points only.
			var qs SearchStats
			s.initCands(spec.K)
			stp := t.searchChecksCore(q, spec.Checks, s, &qs, stop)
			stats.Add(qs)
			if stp {
				return stats, inserts, true
			}
		case BatchRadius:
			res, stp := t.searchRadiusCore(q, spec.Radius, s, results[qi], &stats, stop)
			if stp {
				return stats, inserts, true
			}
			results[qi] = res
			inserts += s.inserts
			continue
		}
		results[qi] = t.appendCands(results[qi], s.cands)
		inserts += s.inserts
	}
	return stats, inserts, false
}

// SearchApproxBatch runs the approximate search for every query; it is
// SearchBatch in BatchApprox mode without the insert count.
func (t *Tree) SearchApproxBatch(queries []geom.Point, k, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, stopped bool) {
	stats, _, stopped = t.SearchBatch(queries, BatchSpec{Mode: BatchApprox, K: k}, workers, results, stop)
	return stats, stopped
}

// SearchExactBatch runs the exact search for every query; it is
// SearchBatch in BatchExact mode without the insert count.
func (t *Tree) SearchExactBatch(queries []geom.Point, k, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, stopped bool) {
	stats, _, stopped = t.SearchBatch(queries, BatchSpec{Mode: BatchExact, K: k}, workers, results, stop)
	return stats, stopped
}
