package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// This file holds the steady-state query path. Every search is iterative
// (explicit node stack or typed branch heap, no recursion) and runs out of
// a reusable Scratch, so a warm search performs zero heap allocations:
//
//   - the *Into entry points append results to a caller-owned dst slice
//     and are the allocation-free API (see docs/performance.md);
//   - the classic entry points (SearchApprox, SearchExact, ...) wrap them
//     with a pooled Scratch and allocate only the returned slice;
//   - an optional stop predicate (polled once per bucket visit) threads
//     the root package's context cancellation through without kdtree
//     importing the context package.
//
// Bucket scans walk the tree's SoA arena spans: one contiguous run of
// points, one of indices, candidate construction only after the distance
// beats the current k-th — the software shape of the paper's streaming FU
// datapath (Fig. 4).

// SearchStats counts the work one or more searches performed. The
// architecture models translate these directly into cycles and DRAM
// traffic.
type SearchStats struct {
	// TraversalSteps is the number of internal nodes visited.
	TraversalSteps int
	// PointsScanned is the number of reference points distance-tested.
	PointsScanned int
	// BucketsVisited is the number of buckets scanned.
	BucketsVisited int
}

// Add accumulates o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.TraversalSteps += o.TraversalSteps
	s.PointsScanned += o.PointsScanned
	s.BucketsVisited += o.BucketsVisited
}

// scanBucket streams bucket b's arena span through the Scratch's candidate
// list and returns the number of points scanned. It is the innermost loop
// of every k-bounded search, split into two passes over the span
// (docs/performance.md):
//
//   - the distance pass computes every point's squared distance into the
//     Scratch's dist buffer, reading the arena's float64 coordinate
//     planes (arenaX/Y/Z) so the loop is three sequential loads, three
//     subtracts and a fused square-sum per point — no float32→float64
//     conversions and no data-dependent branches, letting the out-of-order
//     core stream it at the floating-point throughput floor instead of
//     serializing on the compare of a fused compute+select loop. The
//     arithmetic is DistSq's exactly (the planes hold the float32
//     coordinates widened, which is exact);
//   - the select pass walks the precomputed distances with the k-th
//     distance in a register (w, refreshed only after an insertion) and
//     one heavily biased reject branch; in the steady state ~84% of
//     points lose that compare, and a mispredict here replays only cheap
//     loads, not the distance computation. Accepted candidates are
//     16-byte (distance, arena slot) records inserted by an inline
//     backward scan-and-shift — no call, half a Neighbor's shift traffic
//     — with the same placement as nn.TopK.Push (after any equal
//     distances, first-seen wins ties; the previous k-th, the latest
//     arrival among equal-worst records, is dropped).
//
// The fill phase (list not yet full, every record kept) runs separately so
// the hot loop keeps its single branch.
func (t *Tree) scanBucket(b int32, query geom.Point, s *Scratch) int {
	bk := &t.buckets[b]
	xs := t.arenaX[bk.off : bk.off+bk.n]
	qx := float64(query.X)
	qy := float64(query.Y)
	qz := float64(query.Z)
	if cap(s.dist) < len(xs) {
		s.dist = make([]float64, len(xs)+len(xs)/2)
	}
	// Reslice the plane and buffer views to xs's length so the compiler
	// proves all four indexings in-bounds and drops the checks.
	ys := t.arenaY[bk.off:][:len(xs)]
	zs := t.arenaZ[bk.off:][:len(xs)]
	ds := s.dist[:len(xs)]
	for i := range xs {
		dx := xs[i] - qx
		dy := ys[i] - qy
		dz := zs[i] - qz
		ds[i] = dx*dx + dy*dy + dz*dz
	}
	base := bk.off
	cs := s.cands
	k := s.k
	ins := 0
	i := 0
	for ; i < len(ds) && len(cs) < k; i++ {
		d := ds[i]
		m := len(cs)
		cs = append(cs, cand{})
		j := m
		for j > 0 && cs[j-1].d > d {
			cs[j] = cs[j-1]
			j--
		}
		cs[j] = cand{d: d, pos: base + int32(i)}
		ins++
	}
	if len(cs) == k {
		w := cs[k-1].d
		for ; i < len(ds); i++ {
			d := ds[i]
			if d >= w {
				continue
			}
			j := k - 1
			for j > 0 && cs[j-1].d > d {
				cs[j] = cs[j-1]
				j--
			}
			cs[j] = cand{d: d, pos: base + int32(i)}
			w = cs[k-1].d
			ins++
		}
	}
	s.cands = cs
	s.inserts += ins
	return len(xs)
}

// appendCands materializes the Scratch's candidate records nearest-first
// into dst, resolving each record's arena slot to its reference index and
// coordinates. With sufficient dst capacity it never allocates; an
// undersized dst is grown once, up front.
func (t *Tree) appendCands(dst []nn.Neighbor, cs []cand) []nn.Neighbor {
	if n := len(dst) + len(cs); cap(dst) < n {
		grown := make([]nn.Neighbor, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for _, c := range cs {
		dst = append(dst, nn.Neighbor{Index: int(t.arenaIdx[c.pos]), Point: t.arenaPoint(c.pos), DistSq: c.d})
	}
	return dst
}

// ------------------------------------------------------------ approximate

// SearchApprox performs the paper's approximate search: traverse to the
// single most likely bucket and scan only it. Results are nearest-first
// and at most min(k, bucket size) long.
func (t *Tree) SearchApprox(query geom.Point, k int) ([]nn.Neighbor, SearchStats) {
	s := getScratch()
	res, stats := t.SearchApproxInto(query, k, s, nil)
	putScratch(s)
	return res, stats
}

// SearchApproxInto is SearchApprox appending its results to dst (which may
// be nil) and running entirely out of s: with a warm Scratch and a dst of
// capacity >= k it performs zero heap allocations.
func (t *Tree) SearchApproxInto(query geom.Point, k int, s *Scratch, dst []nn.Neighbor) ([]nn.Neighbor, SearchStats) {
	s.initCands(k)
	stats := t.searchApproxInto(query, s)
	return t.appendCands(dst, s.cands), stats
}

// searchApproxInto scans the query's bucket into s's prepared candidate
// list, allowing callers to reuse the list across calls.
func (t *Tree) searchApproxInto(query geom.Point, s *Scratch) SearchStats {
	_, b, depth := t.FindLeaf(query)
	scanned := t.scanBucket(b, query, s)
	return SearchStats{TraversalSteps: depth, PointsScanned: scanned, BucketsVisited: 1}
}

// ------------------------------------------------------------------ exact

// SearchExact performs the exact k-nearest-neighbor search: approximate
// descent plus backtracking ("with a so-called backtracking method, the
// k-d tree method becomes an exact method", §2.2).
func (t *Tree) SearchExact(query geom.Point, k int) ([]nn.Neighbor, SearchStats) {
	s := getScratch()
	res, stats := t.SearchExactInto(query, k, s, nil)
	putScratch(s)
	return res, stats
}

// SearchExactInto is SearchExact appending its results to dst and running
// out of s (zero allocations once both are warm).
func (t *Tree) SearchExactInto(query geom.Point, k int, s *Scratch, dst []nn.Neighbor) ([]nn.Neighbor, SearchStats) {
	s.initCands(k)
	var stats SearchStats
	t.searchExactCore(query, tightBounds, s, &stats, nil, nil)
	return t.appendCands(dst, s.cands), stats
}

// exactRule selects how searchExactCore prunes.
type exactRule uint8

const (
	// tightBounds prunes a deferred branch by the query's distance to its
	// whole cell and skips a bucket by its tight box: the software rule
	// of every exact entry point except SearchExactBuckets.
	tightBounds exactRule = iota
	// planeBounds prunes a deferred branch by the distance to its own
	// split plane alone and scans every bucket it reaches: the rule the
	// paper's exact-search hardware implements, whose visit lists the
	// architecture models replay.
	planeBounds
)

// searchExactCore is the iterative backtracking search. The explicit
// stack holds deferred far children with the query's per-axis offsets
// to their cells; LIFO pops reproduce the recursive unwind order
// exactly, and each deferred branch is re-checked against the (by then
// tighter) k-th distance at pop time, precisely when the recursion would
// have. The bound is recomputed from the offsets at every pop rather
// than updated by subtracting the replaced offset's square, which could
// round up and skip a point exactly at the bound.
//
// Under planeBounds a pushed branch carries only its split's offset, so
// the bound is the squared distance to that plane (the classic rule).
// Under tightBounds a far child inherits its parent's offsets with the
// split axis replaced (the Arya–Mount incremental distance), and, once
// the candidate list is full, a bucket is skipped when its box's
// distance (bbox.distSq) reaches the k-th distance. Both rules visit the
// surviving buckets in the same order, and a bound never exceeds the
// distance scanBucket computes for a point it covers (monotone
// rounding, the same sum shape), while scanBucket inserts only below
// the k-th distance. A skipped subtree or bucket would therefore have
// inserted nothing, and the two rules return byte-identical neighbors
// for finite coordinates; only the work counted in stats differs.
//
// stop, when non-nil, is polled once per bucket scan; a true return
// abandons the search (candidates gathered so far stay in s.cands,
// stats keep their partial counts). visited, when non-nil, records each
// scanned bucket id in visit order for the architecture models.
func (t *Tree) searchExactCore(query geom.Point, rule exactRule, s *Scratch, stats *SearchStats, stop func() bool, visited *[]int32) (stopped bool) {
	tight := rule == tightBounds
	q := [3]float64{float64(query.X), float64(query.Y), float64(query.Z)}
	stk := append(s.cells[:0], cell{node: t.root})
	for len(stk) > 0 {
		top := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		off := top.off
		if w, full := s.worst(); full && off[0]*off[0]+off[1]*off[1]+off[2]*off[2] >= w {
			continue // the query ball no longer reaches this cell
		}
		if !tight {
			off = [3]float64{}
		}
		idx := top.node
		for {
			nd := t.nodes[idx]
			if nd.Leaf() {
				if tight {
					if w, full := s.worst(); full && t.boxes[nd.Bucket].distSq(q[0], q[1], q[2]) >= w {
						break // no point of the bucket can enter the list
					}
				}
				if stop != nil && stop() {
					s.cells = stk[:0]
					return true
				}
				stats.PointsScanned += t.scanBucket(nd.Bucket, query, s)
				stats.BucketsVisited++
				if visited != nil {
					*visited = append(*visited, nd.Bucket)
				}
				break
			}
			stats.TraversalSteps++
			near := nd.side(query)
			far := nd.Left
			if near == nd.Left {
				far = nd.Right
			}
			fo := off
			fo[nd.Axis] = q[nd.Axis] - float64(nd.Threshold)
			stk = append(stk, cell{node: far, off: fo})
			idx = near
		}
	}
	s.cells = stk[:0] // retain grown capacity for the next query
	return false
}

// SearchExactBuckets is SearchExact instrumented with the list of bucket
// ids the backtracking visited, in visit order. The architecture models
// use it to drive the exact-search hardware comparison (each visited
// bucket is one more bucket fetch + FU pass), so it prunes by the split
// planes alone, as that hardware does: its answers equal SearchExact's,
// its visit list and stats are the plane rule's.
func (t *Tree) SearchExactBuckets(query geom.Point, k int) ([]nn.Neighbor, []int32, SearchStats) {
	s := getScratch()
	defer putScratch(s)
	s.initCands(k)
	var stats SearchStats
	var visited []int32
	t.searchExactCore(query, planeBounds, s, &stats, nil, &visited)
	return t.appendCands(nil, s.cands), visited, stats
}

// ----------------------------------------------------------------- radius

// SearchRadius returns every indexed point within radius of the query
// (exact, via backtracking), nearest first with ties broken on index.
func (t *Tree) SearchRadius(query geom.Point, radius float64) ([]nn.Neighbor, SearchStats) {
	s := getScratch()
	res, stats := t.SearchRadiusInto(query, radius, s, nil)
	putScratch(s)
	return res, stats
}

// SearchRadiusInto is SearchRadius appending its results to dst and
// running its traversal out of s. Unlike the k-bounded searches the
// result count is data-dependent, so dst may still grow (and allocate)
// when undersized.
func (t *Tree) SearchRadiusInto(query geom.Point, radius float64, s *Scratch, dst []nn.Neighbor) ([]nn.Neighbor, SearchStats) {
	var stats SearchStats
	out, _ := t.searchRadiusCore(query, radius, s, dst, &stats, nil)
	return out, stats
}

// searchRadiusCore is the iterative in-radius scan: a DFS with the far
// child pushed before the near one, reproducing the recursive left-first
// visit order. Matches are appended to dst; the new tail (everything past
// the initial len(dst)) is sorted nearest-first before returning.
func (t *Tree) searchRadiusCore(query geom.Point, radius float64, s *Scratch, dst []nn.Neighbor, stats *SearchStats, stop func() bool) ([]nn.Neighbor, bool) {
	r2 := radius * radius
	base := len(dst)
	// Radius searches bypass initCands (no top-k list), so the work
	// counter is reset here; each in-radius append counts as one insert.
	s.inserts = 0
	stk := append(s.stack[:0], branch{node: t.root})
	for len(stk) > 0 {
		idx := stk[len(stk)-1].node
		stk = stk[:len(stk)-1]
		nd := t.nodes[idx]
		if nd.Leaf() {
			if stop != nil && stop() {
				s.stack = stk[:0]
				return dst, true
			}
			bk := &t.buckets[nd.Bucket]
			for i := bk.off; i < bk.off+bk.n; i++ {
				p := t.arenaPoint(i)
				if d := query.DistSq(p); d <= r2 {
					dst = append(dst, nn.Neighbor{Index: int(t.arenaIdx[i]), Point: p, DistSq: d})
					s.inserts++
				}
			}
			stats.PointsScanned += int(bk.n)
			stats.BucketsVisited++
			continue
		}
		stats.TraversalSteps++
		d := float64(query.Coord(nd.Axis)) - float64(nd.Threshold)
		// Push right before left so the left child is processed first,
		// matching the recursive order.
		if d >= 0 || d*d <= r2 {
			stk = append(stk, branch{node: nd.Right})
		}
		if d < 0 || d*d <= r2 {
			stk = append(stk, branch{node: nd.Left})
		}
	}
	s.stack = stk[:0]
	sortNeighbors(dst[base:])
	return dst, false
}

// ----------------------------------------------------------------- checks

// SearchChecks is the best-bin-first approximate search of FLANN (the
// paper's CPU baseline): after the primary descent, the nearest deferred
// branches are explored until at least `checks` reference points have
// been examined. checks=0 degenerates to SearchApprox's single bucket;
// checks ≥ N approaches the exact result. It interpolates the
// accuracy/latency trade-off between the two hardware search modes.
func (t *Tree) SearchChecks(query geom.Point, k, checks int) ([]nn.Neighbor, SearchStats) {
	s := getScratch()
	res, stats := t.SearchChecksInto(query, k, checks, s, nil)
	putScratch(s)
	return res, stats
}

// SearchChecksInto is SearchChecks appending its results to dst and
// running out of s (zero allocations once both are warm).
func (t *Tree) SearchChecksInto(query geom.Point, k, checks int, s *Scratch, dst []nn.Neighbor) ([]nn.Neighbor, SearchStats) {
	s.initCands(k)
	var stats SearchStats
	t.searchChecksCore(query, checks, s, &stats, nil)
	return t.appendCands(dst, s.cands), stats
}

// searchChecksCore is the iterative best-bin-first loop over the typed
// branch heap in s. stop, when non-nil, is polled once per deferred-
// branch descent (each descent ends in one bucket scan).
func (t *Tree) searchChecksCore(query geom.Point, checks int, s *Scratch, stats *SearchStats, stop func() bool) (stopped bool) {
	h := append(s.heap[:0], branch{node: t.root})
	first := true
	for len(h) > 0 && (first || stats.PointsScanned < checks) {
		first = false
		if stop != nil && stop() {
			s.heap = h[:0]
			return true
		}
		entry := h.pop()
		if w, full := s.worst(); full && entry.bound >= w {
			continue // the branch region cannot improve the candidate list
		}
		// Descend the near side from the entry to a leaf, deferring each
		// far child with its region's accumulated lower-bound distance.
		idx := entry.node
		for {
			nd := t.nodes[idx]
			if nd.Leaf() {
				stats.PointsScanned += t.scanBucket(nd.Bucket, query, s)
				stats.BucketsVisited++
				break
			}
			stats.TraversalSteps++
			near := nd.side(query)
			far := nd.Left
			if near == nd.Left {
				far = nd.Right
			}
			d := float64(query.Coord(nd.Axis)) - float64(nd.Threshold)
			h.push(branch{node: far, bound: entry.bound + d*d})
			idx = near
		}
	}
	s.heap = h[:0]
	return false
}

// ---------------------------------------------------------------- batches

// SearchAllApprox runs the approximate search for every query, returning
// per-query results and the summed stats — the successive-frame workload.
// Queries execute in leaf-grouped order (batch.go) so each bucket's arena
// span is scanned while cache-resident; all result neighbors share one
// flat backing array (one allocation per batch, not per query) and one
// Scratch serves the whole batch.
func (t *Tree) SearchAllApprox(queries []geom.Point, k int) ([][]nn.Neighbor, SearchStats) {
	out := batchRegions(len(queries), k)
	stats, _ := t.SearchApproxBatch(queries, k, 1, out, nil)
	return out, stats
}

// SearchAllExact runs the exact search for every query, with the same
// leaf-grouped order and shared-scratch, flat-backing layout as
// SearchAllApprox.
func (t *Tree) SearchAllExact(queries []geom.Point, k int) ([][]nn.Neighbor, SearchStats) {
	out := batchRegions(len(queries), k)
	stats, _ := t.SearchExactBatch(queries, k, 1, out, nil)
	return out, stats
}

// batchRegions carves one flat backing array of n*k records into n
// zero-length, capacity-k views. Each view can never reallocate (every
// k-bounded search returns at most k neighbors) and never aliases a
// neighboring query's span, so grouped — even parallel — execution appends
// into them safely.
func batchRegions(n, k int) [][]nn.Neighbor {
	out := make([][]nn.Neighbor, n)
	backing := make([]nn.Neighbor, n*k)
	for qi := range out {
		out[qi] = backing[qi*k : qi*k : (qi+1)*k]
	}
	return out
}
