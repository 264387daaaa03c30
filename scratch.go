package quicknn

import (
	"sync"

	"github.com/quicknn/quicknn/internal/kdtree"
)

// Scratch is reusable per-goroutine search state for the allocation-free
// QueryInto entry point: the running candidate list plus the traversal
// stack and branch heap of the backtracking modes. A zero-cost wrapper
// over the k-d tree's internal scratch, it exists so callers that issue
// many queries one at a time (benchmark loops, odometry pipelines) can pay the traversal-state allocations once and
// never again.
//
// A Scratch must not be used by two concurrent queries. The zero value is
// not ready; use NewScratch.
type Scratch struct {
	s *kdtree.Scratch
	// last is the work breakdown of the most recent QueryInto through
	// this scratch; see LastStats.
	last QueryStats
}

// QueryStats is the work one query — or, summed, one QueryBatchInto
// call — performed: how many internal nodes the traversal visited, how
// many buckets and reference points the scan examined, and how many
// candidate-list insertions ("heap churn") the running top-k list
// absorbed. The flight recorder records them per request so a slow
// request can be attributed to tree shape (traversal), bucket occupancy
// (scan) or contention for the candidate list (churn).
type QueryStats struct {
	TraversalSteps int
	PointsScanned  int
	BucketsVisited int
	CandInserts    int
}

// LastStats returns the work breakdown of the most recent QueryInto that
// used this Scratch (zero until the first query). It is captured on
// success and on in-flight cancellation alike; callers on the zero-alloc
// path read it immediately after QueryInto returns, before the scratch
// is reused.
func (s *Scratch) LastStats() QueryStats { return s.last }

// NewScratch returns an empty Scratch. Capacity grows on first use and is
// retained for the lifetime of the value; after one warm-up query at a
// given K, QueryInto with this scratch performs zero heap allocations
// (see docs/performance.md).
func NewScratch() *Scratch { return &Scratch{s: kdtree.NewScratch()} }

// queryScratchPool backs the convenience entry points (Query, Search,
// ...) so that even they stop allocating traversal state per
// call — only their returned result slices remain.
var queryScratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

func getQueryScratch() *Scratch  { return queryScratchPool.Get().(*Scratch) }
func putQueryScratch(s *Scratch) { queryScratchPool.Put(s) }
