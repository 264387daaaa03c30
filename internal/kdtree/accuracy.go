package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/linear"
)

// AccuracyReport quantifies approximate-search quality the way the paper
// does (§2.2, Fig. 3): "the likelihood the k nearest neighbors are present
// in the top k+x nearest neighbors" — a query succeeds at slack x when
// every neighbor the approximate search returns is among the true k+x
// nearest. At x=0 the returned set must be exactly the true top-k; larger
// x forgives near-misses (the approximate search returning the (k+1)-th
// true neighbor in place of the k-th).
type AccuracyReport struct {
	K, X int
	// TopKRecall is the fraction of queries whose k approximate results
	// all lie within the exact top k+x.
	TopKRecall float64
	// Top1Recall is the fraction of queries whose true nearest neighbor
	// appears among the approximate results ("how often the top-1
	// nearest neighbor is contained in the results").
	Top1Recall float64
	// NeighborRecall is the mean fraction of the true top-k found by the
	// approximate search — the per-neighbor accuracy of Table 1.
	NeighborRecall float64
	Queries        int
}

// MeasureAccuracy evaluates the approximate search against brute-force
// exact neighbors over the given queries.
func (t *Tree) MeasureAccuracy(reference, queries []geom.Point, k, x int) AccuracyReport {
	rep := AccuracyReport{K: k, X: x, Queries: len(queries)}
	if len(queries) == 0 {
		return rep
	}
	want := k
	if len(reference) < want {
		want = len(reference)
	}
	allIn := 0
	top1 := 0
	var neighborHits, neighborTotal int
	s := getScratch()
	defer putScratch(s)
	for _, q := range queries {
		res, _, _ := t.SearchInto(q, Spec{K: k}, s, nil, nil)
		exact := linear.Search(reference, q, k+x)
		exactSet := make(map[int]int, len(exact))
		for rank, e := range exact {
			exactSet[e.Index] = rank
		}
		// Top-1: the true nearest is among the returned results.
		if len(exact) > 0 {
			for _, r := range res {
				if r.Index == exact[0].Index {
					top1++
					break
				}
			}
		}
		// Top-k @ x: every returned neighbor is within the true top k+x
		// (and the search did return a full candidate list).
		ok := len(res) >= want
		for _, r := range res {
			if _, hit := exactSet[r.Index]; !hit {
				ok = false
				break
			}
		}
		if ok {
			allIn++
		}
		// Per-neighbor recall against the true top-k.
		kTrue := want
		if len(exact) < kTrue {
			kTrue = len(exact)
		}
		for _, e := range exact[:kTrue] {
			for _, r := range res {
				if r.Index == e.Index {
					neighborHits++
					break
				}
			}
		}
		neighborTotal += kTrue
	}
	rep.TopKRecall = float64(allIn) / float64(rep.Queries)
	rep.Top1Recall = float64(top1) / float64(rep.Queries)
	if neighborTotal > 0 {
		rep.NeighborRecall = float64(neighborHits) / float64(neighborTotal)
	}
	return rep
}
