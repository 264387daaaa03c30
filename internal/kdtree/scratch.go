package kdtree

import (
	"sync"

	"github.com/quicknn/quicknn/internal/nn"
)

// Scratch is the reusable per-goroutine state of the iterative searches:
// the running top-k candidate list, the exact search's stack of deferred
// cells, the radius search's node stack, and the typed best-bin-first
// branch heap. A zero Scratch is ready to use; after one warm-up query at
// a given k, every subsequent search through a *Into entry point
// performs zero heap allocations (guarded by testing.AllocsPerRun in
// alloc_test.go).
//
// A Scratch must not be shared by concurrent searches. The scratch-pooling
// contract (docs/performance.md): everything inside Scratch is reused
// across queries and never escapes; only the neighbors appended to the
// caller's dst slice survive a call.
type Scratch struct {
	k     int
	cands []cand
	cells []cell
	stack []branch
	heap  branchHeap
	dist  []float64 // scanBucket's per-span distance buffer (two-pass scan)
	// inserts counts candidate-list insertions (radius mode: in-radius
	// appends) during the current query — the "heap churn" work counter
	// the flight recorder reports. Reset at every search entry point,
	// read via CandInserts. Deliberately not part of SearchStats: that
	// struct is compared wholesale against reference implementations in
	// the equivalence tests.
	inserts int
}

// cand is the hot-path candidate record: a squared distance plus the
// candidate's arena slot. At 16 bytes it is half a nn.Neighbor, so the
// insertion-shift of the running top-k list moves half the memory, and
// the full Neighbor (reference index + coordinates) is materialized from
// the arena only once per final result, not once per accepted candidate.
// Arena slots are stable for the duration of a search (updates and
// searches never run concurrently), so pos resolves exactly.
type cand struct {
	d   float64
	pos int32
}

// initCands prepares the candidate list for a fresh query retaining the k
// nearest records, reusing the backing array once warm. It panics if
// k <= 0, mirroring nn.NewTopK's contract.
func (s *Scratch) initCands(k int) {
	if k <= 0 {
		panic("kdtree: search requires k > 0")
	}
	s.k = k
	s.inserts = 0
	if cap(s.cands) < k {
		s.cands = make([]cand, 0, k)
		return
	}
	s.cands = s.cands[:0]
}

// CandInserts returns the number of candidate-list insertions the most
// recent (or in-flight) search performed — the shift-and-insert churn of
// the running top-k list, or the number of in-radius matches for radius
// searches. It is valid until the next search entry on this Scratch.
func (s *Scratch) CandInserts() int { return s.inserts }

// worst returns the squared distance of the current k-th candidate record,
// with ok=false while fewer than k are held — the pruning radius of the
// backtracking searches (nn.TopK.Worst's shape).
func (s *Scratch) worst() (float64, bool) {
	if len(s.cands) < s.k {
		return 0, false
	}
	return s.cands[len(s.cands)-1].d, true
}

// NewScratch returns an empty Scratch. Capacity is grown on first use and
// retained for the lifetime of the value.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the non-Into convenience entry points (SearchApprox,
// SearchExact, ...), so even they stop allocating traversal state per
// query — only their returned result slices remain.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// cell is one deferred subtree of the exact search: the far child of a
// visited split, with the query's per-axis offsets to the child's cell
// (zero on an axis where the query lies within the cell's extent). The
// squared lower bound is recomputed from them at pop time
// (searchExactCore).
type cell struct {
	node int32
	off  [3]float64
}

// branch is one deferred subtree: the far child of a visited split, with
// the relevant squared-distance lower bound. The checks search keeps
// them on a min-heap (bound = accumulated region distance,
// best-bin-first); the radius search keeps them on a LIFO stack and
// reads only the node.
type branch struct {
	node  int32
	bound float64
}

// branchHeap is a typed min-heap of deferred branches ordered by bound.
// It replicates container/heap's sift algorithms exactly — including
// tie-breaking behavior — so SearchChecks visits buckets in precisely the
// order the previous container/heap implementation did, without the
// interface{} boxing that cost one heap allocation per deferred branch.
type branchHeap []branch

func (h *branchHeap) push(e branch) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *branchHeap) pop() branch {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

func (h branchHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].bound < h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h branchHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].bound < h[j1].bound {
			j = j2 // right child
		}
		if !(h[j].bound < h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sortNeighbors orders neighbors nearest-first, breaking distance ties on
// ascending reference index — the radius searches' result order. It is a
// dedicated introsort (median-of-three quicksort, heapsort beyond the
// depth bound, insertion sort for small runs) rather than sort.Slice so
// the hot path carries neither a closure nor a sort.Interface box; the
// (DistSq, Index) key is a total order over distinct reference points, so
// the sorted result is unique regardless of algorithm.
func sortNeighbors(s []nn.Neighbor) {
	// Depth bound 2*ceil(log2(n+1)), as in the standard introsort.
	depth := 0
	for n := len(s); n > 0; n >>= 1 {
		depth += 2
	}
	sortNeighborsRec(s, depth)
}

func neighborLess(a, b nn.Neighbor) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq < b.DistSq
	}
	return a.Index < b.Index
}

func sortNeighborsRec(s []nn.Neighbor, depth int) {
	for len(s) > 12 {
		if depth == 0 {
			heapSortNeighbors(s)
			return
		}
		depth--
		p := partitionNeighbors(s)
		// Recurse into the smaller side, loop on the larger.
		if p < len(s)-p-1 {
			sortNeighborsRec(s[:p], depth)
			s = s[p+1:]
		} else {
			sortNeighborsRec(s[p+1:], depth)
			s = s[:p]
		}
	}
	// Insertion sort for short runs.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && neighborLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// partitionNeighbors performs a Lomuto partition around a median-of-three
// pivot and returns the pivot's final position.
func partitionNeighbors(s []nn.Neighbor) int {
	hi := len(s) - 1
	mid := hi / 2
	// Order s[0] <= s[mid] <= s[hi], then use s[mid] as the pivot.
	if neighborLess(s[mid], s[0]) {
		s[mid], s[0] = s[0], s[mid]
	}
	if neighborLess(s[hi], s[mid]) {
		s[hi], s[mid] = s[mid], s[hi]
		if neighborLess(s[mid], s[0]) {
			s[mid], s[0] = s[0], s[mid]
		}
	}
	s[mid], s[hi-1] = s[hi-1], s[mid]
	pivot := s[hi-1]
	i := 0
	for j := 1; j < hi-1; j++ {
		if neighborLess(s[j], pivot) {
			i++
			s[i], s[j] = s[j], s[i]
		}
	}
	s[i+1], s[hi-1] = s[hi-1], s[i+1]
	return i + 1
}

func heapSortNeighbors(s []nn.Neighbor) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownNeighbors(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDownNeighbors(s, 0, i)
	}
}

func siftDownNeighbors(s []nn.Neighbor, i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j+1 < n && neighborLess(s[j], s[j+1]) {
			j++
		}
		if !neighborLess(s[i], s[j]) {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}
