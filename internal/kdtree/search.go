package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// This file holds the steady-state query path. Every search is iterative
// (explicit node stack or typed branch heap, no recursion) and runs out of
// a reusable Scratch, so a warm search performs zero heap allocations:
//
//   - SearchInto is the one single-query entry point: a Spec selects the
//     mode, results append to a caller-owned dst slice, and it is the
//     allocation-free API (see docs/performance.md); Search wraps it
//     with a pooled Scratch and allocates only the returned slice;
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

// ------------------------------------------------------------ entry points

// Mode selects the search a Spec runs.
type Mode uint8

const (
	// Approx is the paper's approximate search: descend to the query's
	// single most likely bucket and scan only it. Results are
	// nearest-first and at most min(K, bucket size) long.
	Approx Mode = iota
	// Exact is the exact k-nearest-neighbor search: approximate descent
	// plus backtracking ("with a so-called backtracking method, the k-d
	// tree method becomes an exact method", §2.2).
	Exact
	// Checks is the best-bin-first search of FLANN (the paper's CPU
	// baseline): after the primary descent, the nearest deferred
	// branches are explored until at least Spec.Checks reference points
	// have been examined. Checks=0 degenerates to Approx's single
	// bucket; Checks >= N approaches Exact. It interpolates the
	// accuracy/latency trade-off between the two hardware modes.
	Checks
	// Radius returns every indexed point within Spec.Radius of the query
	// (exact, via backtracking), nearest first with ties broken on index.
	Radius
)

// Spec parameterizes a search: the mode plus the knobs it reads. The
// zero value's mode is Approx.
type Spec struct {
	Mode Mode
	// K is the neighbor count of the k-bounded modes (must be > 0 there).
	K int
	// Checks is Checks mode's reference-point budget.
	Checks int
	// Radius is Radius mode's search radius.
	Radius float64
}

// Search runs one spec search with a pooled Scratch and returns its
// neighbors, nearest first, with the work it performed.
func (t *Tree) Search(query geom.Point, spec Spec) ([]nn.Neighbor, SearchStats) {
	s := getScratch()
	res, stats, _ := t.SearchInto(query, spec, s, nil, nil)
	putScratch(s)
	return res, stats
}

// SearchInto is the allocation-free form of Search: it appends the
// query's neighbors to dst (which may be nil) and runs entirely out of
// s. With a warm Scratch and, in the k-bounded modes, a dst of capacity
// >= K it performs zero heap allocations; Radius mode's result count is
// data-dependent, so an undersized dst may still grow.
//
// stop, when non-nil, is polled before every bucket scan in Exact and
// Radius mode and before every deferred-branch descent in Checks mode;
// Approx mode scans one bucket and never polls it. A true return
// abandons the search (stopped=true): dst comes back unextended, a nil
// dst stays nil, and stats keep the partial counts.
func (t *Tree) SearchInto(query geom.Point, spec Spec, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	return t.search(query, spec, -1, 0, s, dst, stop)
}

// search is the one per-query mode dispatch behind SearchInto and the
// batch runner. leaf is the query's primary bucket when the caller has
// already descended to it (at the given depth), or -1 to make Approx
// mode descend itself; the other modes ignore both.
func (t *Tree) search(query geom.Point, spec Spec, leaf int32, depth int, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	switch spec.Mode {
	case Approx:
		s.initCands(spec.K)
		if leaf < 0 {
			_, leaf, depth = t.FindLeaf(query)
		}
		stats = SearchStats{TraversalSteps: depth, PointsScanned: t.scanBucket(leaf, query, s), BucketsVisited: 1}
	case Exact:
		s.initCands(spec.K)
		stopped = t.searchExactCore(query, tightBounds, s, &stats, stop, nil)
	case Checks:
		// stats holds this query's work alone, so the budget counts
		// only its points.
		s.initCands(spec.K)
		stopped = t.searchChecksCore(query, spec.Checks, s, &stats, stop)
	case Radius:
		res, stopped = t.searchRadiusCore(query, spec.Radius, s, dst, &stats, stop)
		if stopped {
			return dst, stats, true
		}
		return res, stats, false
	}
	if stopped {
		return dst, stats, true
	}
	return t.appendCands(dst, s.cands), stats, false
}

// ------------------------------------------------------------------ exact

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

// SearchExactBuckets is the Exact-mode search instrumented with the list
// of bucket ids the backtracking visited, in visit order. The
// architecture models use it to drive the exact-search hardware
// comparison (each visited bucket is one more bucket fetch + FU pass), so
// it prunes by the split planes alone, as that hardware does: its answers
// equal Search's in Exact mode, its visit list and stats are the plane
// rule's.
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
