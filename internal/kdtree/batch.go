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

// batchRun is the number of queries of the grouped order a batch worker
// claims per atomic fetch: runs keep a group's locality within one
// worker, yet split a large group — one dense cluster — across workers;
// the worker count is capped at one per run.
const batchRun = 16

// batchPlan is the reusable grouped execution order for one query batch,
// plus the batch's parameters and the state its workers share. Holding
// all of it in one pooled value keeps a multi-worker batch from
// allocating anything but its goroutines.
type batchPlan struct {
	leaf   []int32 // per-query primary bucket id
	depth  []int32 // per-query descent depth (traversal steps)
	starts []int32 // group start offsets into order, len = len(buckets)+1
	cursor []int32 // scatter cursors (planning scratch)
	order  []int32 // query indices, grouped by primary bucket

	t       *Tree
	queries []geom.Point
	spec    Spec
	results [][]nn.Neighbor
	stop    func() bool

	// fanOut's shared state: the next unclaimed offset into order, the
	// abort flag, and the workers' summed output under mu.
	next    atomic.Int64
	aborted atomic.Bool
	wg      sync.WaitGroup
	mu      sync.Mutex
	stats   SearchStats
	inserts int
}

// batchPlanPool recycles plans across batches: after warm-up a plan of
// sufficient capacity is reused allocation-free.
var batchPlanPool = sync.Pool{New: func() interface{} { return new(batchPlan) }}

func getBatchPlan() *batchPlan { return batchPlanPool.Get().(*batchPlan) }

// putBatchPlan drops the plan's references to the finished batch and
// returns it to the pool.
func putBatchPlan(pl *batchPlan) {
	pl.t, pl.queries, pl.results, pl.stop = nil, nil, nil, nil
	batchPlanPool.Put(pl)
}

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
// one flat backing array in practice), so nothing reallocates; Radius
// mode appends as many matches as it finds. Queries execute in
// leaf-grouped order, fanned out over up to workers goroutines (at most
// one per batchRun queries; the caller's goroutine is one of them) —
// callers must then ensure the results regions do not alias. Per-query
// output, the summed stats and the summed candidate-insert count are
// identical to calling SearchInto per query and adding up its stats and
// Scratch.CandInserts.
//
// stop, when non-nil, is polled whenever a worker enters a new leaf group
// and, in the backtracking modes, as SearchInto polls it; a true return
// abandons the batch (stopped=true, results partially filled).
func (t *Tree) SearchBatch(queries []geom.Point, spec Spec, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, inserts int, stopped bool) {
	n := len(queries)
	if n == 0 {
		return SearchStats{}, 0, false
	}
	pl := getBatchPlan()
	defer putBatchPlan(pl)
	t.plan(queries, pl)
	pl.t, pl.queries, pl.spec, pl.results, pl.stop = t, queries, spec, results, stop
	workers = min(workers, (n+batchRun-1)/batchRun)
	if workers <= 1 {
		s := getScratch()
		defer putScratch(s)
		return pl.runOrder(pl.order, s)
	}
	return pl.fanOut(workers)
}

// fanOut runs pl's grouped order on workers goroutines, the caller's
// included, each claiming batchRun-query runs until the order is
// exhausted or a run stops.
func (pl *batchPlan) fanOut(workers int) (SearchStats, int, bool) {
	pl.next.Store(0)
	pl.aborted.Store(false)
	pl.stats, pl.inserts = SearchStats{}, 0
	pl.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer pl.wg.Done()
			pl.work()
		}()
	}
	pl.work()
	pl.wg.Wait()
	return pl.stats, pl.inserts, pl.aborted.Load()
}

// work is one fanOut worker: it claims runs of the grouped order and
// adds its summed output to pl's under pl.mu.
func (pl *batchPlan) work() {
	s := getScratch()
	defer putScratch(s)
	n := len(pl.order)
	var stats SearchStats
	inserts := 0
	for !pl.aborted.Load() {
		lo := int(pl.next.Add(batchRun)) - batchRun
		if lo >= n {
			break
		}
		st, ins, stp := pl.runOrder(pl.order[lo:min(lo+batchRun, n)], s)
		stats.Add(st)
		inserts += ins
		if stp {
			pl.aborted.Store(true)
		}
	}
	pl.mu.Lock()
	pl.stats.Add(stats)
	pl.inserts += inserts
	pl.mu.Unlock()
}

// runOrder executes the queries listed in order — a run of pl's grouped
// order — on one goroutine with scratch s. In Approx mode each query
// scans the primary bucket the plan already found.
func (pl *batchPlan) runOrder(order []int32, s *Scratch) (stats SearchStats, inserts int, stopped bool) {
	group := int32(-1)
	for _, qi := range order {
		if b := pl.leaf[qi]; b != group {
			group = b
			if pl.stop != nil && pl.stop() {
				return stats, inserts, true
			}
		}
		res, st, stp := pl.t.search(pl.queries[qi], pl.spec, group, int(pl.depth[qi]), s, pl.results[qi], pl.stop)
		stats.Add(st)
		if stp {
			return stats, inserts, true
		}
		pl.results[qi] = res
		inserts += s.inserts
	}
	return stats, inserts, false
}

// SearchApproxBatch is SearchBatch in Approx mode without the insert
// count. It is kept for perfbench's per-layer ledger, which calls it.
func (t *Tree) SearchApproxBatch(queries []geom.Point, k, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, stopped bool) {
	stats, _, stopped = t.SearchBatch(queries, Spec{Mode: Approx, K: k}, workers, results, stop)
	return stats, stopped
}

// SearchExactBatch is SearchBatch in Exact mode without the insert
// count. It is kept for perfbench's per-layer ledger, which calls it.
func (t *Tree) SearchExactBatch(queries []geom.Point, k, workers int, results [][]nn.Neighbor, stop func() bool) (stats SearchStats, stopped bool) {
	stats, _, stopped = t.SearchBatch(queries, Spec{Mode: Exact, K: k}, workers, results, stop)
	return stats, stopped
}
