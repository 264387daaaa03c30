package kdtree

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// This file pins the iterative, arena-backed searches to straightforward
// reference implementations written the way the pre-optimization code
// was: recursive backtracking, container/heap best-bin-first, and
// sort.Slice result ordering. Every search must return byte-identical
// neighbors AND identical SearchStats — on a freshly built tree, after
// incremental updates, after a serialization round trip, and on a clone.

// refScanBucket pushes every bucket point, the unhoisted original form.
func refScanBucket(t *Tree, b int32, q geom.Point, tk *nn.TopK) int {
	pts, ids := t.AppendBucketPoints(nil, b), t.BucketIndices(b)
	for i, p := range pts {
		tk.Push(nn.Neighbor{Index: int(ids[i]), Point: p, DistSq: q.DistSq(p)})
	}
	return len(pts)
}

// refSearchExact is the classic recursive backtracking search, pruning
// each far child by its split plane alone (the plane rule).
func refSearchExact(t *Tree, q geom.Point, k int) ([]nn.Neighbor, SearchStats) {
	tk := nn.NewTopK(k)
	var stats SearchStats
	var rec func(idx int32)
	rec = func(idx int32) {
		nd := t.nodes[idx]
		if nd.Leaf() {
			stats.PointsScanned += refScanBucket(t, nd.Bucket, q, tk)
			stats.BucketsVisited++
			return
		}
		stats.TraversalSteps++
		near := nd.side(q)
		far := nd.Left
		if near == nd.Left {
			far = nd.Right
		}
		rec(near)
		d := float64(q.Coord(nd.Axis)) - float64(nd.Threshold)
		if w, full := tk.Worst(); !full || d*d < w {
			rec(far)
		}
	}
	rec(t.root)
	return tk.Results(), stats
}

// refBranchHeap is the container/heap-backed branch queue the checks
// search used before the typed heap replaced it.
type refBranch struct {
	node  int32
	bound float64
}

type refBranchHeap []refBranch

func (h refBranchHeap) Len() int            { return len(h) }
func (h refBranchHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h refBranchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refBranchHeap) Push(x interface{}) { *h = append(*h, x.(refBranch)) }
func (h *refBranchHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	it := old[n]
	*h = old[:n]
	return it
}

// refSearchChecks is the best-bin-first search over container/heap.
func refSearchChecks(t *Tree, q geom.Point, k, checks int) ([]nn.Neighbor, SearchStats) {
	tk := nn.NewTopK(k)
	var stats SearchStats
	h := &refBranchHeap{{node: t.root}}
	first := true
	for h.Len() > 0 && (first || stats.PointsScanned < checks) {
		first = false
		entry := heap.Pop(h).(refBranch)
		if w, full := tk.Worst(); full && entry.bound >= w {
			continue
		}
		idx := entry.node
		for {
			nd := t.nodes[idx]
			if nd.Leaf() {
				stats.PointsScanned += refScanBucket(t, nd.Bucket, q, tk)
				stats.BucketsVisited++
				break
			}
			stats.TraversalSteps++
			near := nd.side(q)
			far := nd.Left
			if near == nd.Left {
				far = nd.Right
			}
			d := float64(q.Coord(nd.Axis)) - float64(nd.Threshold)
			heap.Push(h, refBranch{node: far, bound: entry.bound + d*d})
			idx = near
		}
	}
	return tk.Results(), stats
}

// refSearchRadius is the recursive in-radius collect with sort.Slice
// ordering on the (DistSq, Index) key.
func refSearchRadius(t *Tree, q geom.Point, radius float64) ([]nn.Neighbor, SearchStats) {
	r2 := radius * radius
	var out []nn.Neighbor
	var stats SearchStats
	var rec func(idx int32)
	rec = func(idx int32) {
		nd := t.nodes[idx]
		if nd.Leaf() {
			pts, ids := t.AppendBucketPoints(nil, nd.Bucket), t.BucketIndices(nd.Bucket)
			for i, p := range pts {
				if d := q.DistSq(p); d <= r2 {
					out = append(out, nn.Neighbor{Index: int(ids[i]), Point: p, DistSq: d})
				}
			}
			stats.PointsScanned += len(pts)
			stats.BucketsVisited++
			return
		}
		stats.TraversalSteps++
		d := float64(q.Coord(nd.Axis)) - float64(nd.Threshold)
		if d < 0 || d*d <= r2 {
			rec(nd.Left)
		}
		if d >= 0 || d*d <= r2 {
			rec(nd.Right)
		}
	}
	rec(t.root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistSq != out[j].DistSq {
			return out[i].DistSq < out[j].DistSq
		}
		return out[i].Index < out[j].Index
	})
	return out, stats
}

func diffNeighbors(t *testing.T, label string, got, want []nn.Neighbor, gotStats, wantStats SearchStats) {
	t.Helper()
	if gotStats != wantStats {
		t.Fatalf("%s: stats = %+v, want %+v", label, gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// treeVariants builds the tree shapes the equivalence suite runs against:
// fresh build, post-incremental-update, serial round trip, and clone.
func treeVariants(t *testing.T) map[string]*Tree {
	t.Helper()
	pts := clusteredPoints(9000, 41)
	fresh := mustBuild(t, pts, Config{BucketSize: 128}, 42)

	updated := fresh.Clone()
	shift := geom.Transform{Yaw: 0.03, Translation: geom.Point{X: 1.5, Y: -0.75}}
	moved := make([]geom.Point, len(pts))
	for i, p := range pts {
		moved[i] = shift.Apply(p)
	}
	updated.UpdateFrame(moved, 0, 0)
	if err := updated.Validate(); err != nil {
		t.Fatalf("updated tree invalid: %v", err)
	}

	var buf bytes.Buffer
	if _, err := updated.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}

	return map[string]*Tree{
		"fresh":   fresh,
		"updated": updated,
		"loaded":  loaded,
		"clone":   updated.Clone(),
	}
}

func equivalenceQueries(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Point, n)
	for i := range qs {
		qs[i] = geom.Point{
			X: float32(rng.Float64()*100 - 50),
			Y: float32(rng.Float64()*100 - 50),
			Z: float32(rng.Float64() * 4),
		}
	}
	return qs
}

// TestSearchExactMatchesReference pins each exact rule to its recursive
// oracle, stats included: Exact-mode Search to the tight-rule oracle and
// SearchExactBuckets to the plane-rule one. Both oracles return the
// same neighbors.
func TestSearchExactMatchesReference(t *testing.T) {
	queries := equivalenceQueries(60, 43)
	for name, tree := range treeVariants(t) {
		for _, k := range []int{1, 5, 16} {
			for _, q := range queries {
				want, wantStats := refSearchExactTight(tree, q, k)
				got, gotStats := tree.Search(q, Spec{Mode: Exact, K: k})
				diffNeighbors(t, name+"/exact", got, want, gotStats, wantStats)
				wantPlane, wantPlaneStats := refSearchExact(tree, q, k)
				gotPlane, _, gotPlaneStats := tree.SearchExactBuckets(q, k)
				diffNeighbors(t, name+"/exact-plane", gotPlane, wantPlane, gotPlaneStats, wantPlaneStats)
				diffNeighbors(t, name+"/exact-rules", got, wantPlane, SearchStats{}, SearchStats{})
			}
		}
	}
}

func TestSearchChecksMatchesReference(t *testing.T) {
	queries := equivalenceQueries(40, 44)
	for name, tree := range treeVariants(t) {
		for _, checks := range []int{0, 256, 2048} {
			for _, q := range queries {
				want, wantStats := refSearchChecks(tree, q, 8, checks)
				got, gotStats := tree.Search(q, Spec{Mode: Checks, K: 8, Checks: checks})
				diffNeighbors(t, name+"/checks", got, want, gotStats, wantStats)
			}
		}
	}
}

func TestSearchRadiusMatchesReference(t *testing.T) {
	queries := equivalenceQueries(40, 45)
	for name, tree := range treeVariants(t) {
		for _, r := range []float64{0.5, 2, 8} {
			for _, q := range queries {
				want, wantStats := refSearchRadius(tree, q, r)
				got, gotStats := tree.Search(q, Spec{Mode: Radius, Radius: r})
				diffNeighbors(t, name+"/radius", got, want, gotStats, wantStats)
			}
		}
	}
}

// TestSearchAllMatchesSingles pins one-worker batches over flat-backing
// result regions to single-query searches.
func TestSearchAllMatchesSingles(t *testing.T) {
	for name, tree := range treeVariants(t) {
		queries := equivalenceQueries(128, 46)
		const k = 10
		gotA, statsA := searchAll(tree, queries, Spec{K: k})
		gotE, statsE := searchAll(tree, queries, Spec{Mode: Exact, K: k})
		var wantStatsA, wantStatsE SearchStats
		for qi, q := range queries {
			wa, sa := tree.Search(q, Spec{K: k})
			wantStatsA.Add(sa)
			diffNeighbors(t, name+"/all-approx", gotA[qi], wa, SearchStats{}, SearchStats{})
			we, se := tree.Search(q, Spec{Mode: Exact, K: k})
			wantStatsE.Add(se)
			diffNeighbors(t, name+"/all-exact", gotE[qi], we, SearchStats{}, SearchStats{})
		}
		if statsA != wantStatsA {
			t.Fatalf("%s: approx batch stats %+v, want %+v", name, statsA, wantStatsA)
		}
		if statsE != wantStatsE {
			t.Fatalf("%s: exact batch stats %+v, want %+v", name, statsE, wantStatsE)
		}
	}
}

// TestSearchBatchMatchesSingles pins the one batch runner, in all four
// modes and at several worker counts, to the single-query SearchInto:
// byte-identical neighbors per query, and stats and candidate inserts
// equal to the per-query sums.
func TestSearchBatchMatchesSingles(t *testing.T) {
	queries := equivalenceQueries(150, 47)
	for name, tree := range treeVariants(t) {
		for _, spec := range []Spec{
			{Mode: Approx, K: 10},
			{Mode: Exact, K: 10},
			{Mode: Checks, K: 6, Checks: 700},
			{Mode: Radius, Radius: 2},
		} {
			s := NewScratch()
			want := make([][]nn.Neighbor, len(queries))
			var wantStats SearchStats
			wantInserts := 0
			for qi, q := range queries {
				var st SearchStats
				want[qi], st, _ = tree.SearchInto(q, spec, s, nil, nil)
				wantStats.Add(st)
				wantInserts += s.CandInserts()
			}
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/mode%d/workers%d", name, spec.Mode, workers)
				got := make([][]nn.Neighbor, len(queries))
				stats, inserts, stopped := tree.SearchBatch(queries, spec, workers, got, nil)
				if stopped {
					t.Fatalf("%s: stopped without a stop predicate", label)
				}
				for qi := range queries {
					diffNeighbors(t, label, got[qi], want[qi], SearchStats{}, SearchStats{})
				}
				if stats != wantStats || inserts != wantInserts {
					t.Fatalf("%s: stats %+v inserts %d, want %+v and %d", label, stats, inserts, wantStats, wantInserts)
				}
			}
		}
	}
}

// TestSearchBatchStops checks that a stop predicate abandons the batch in
// every mode and at every worker count, and a single SearchInto in every
// backtracking mode: a stopped search returns dst unextended, and a nil
// dst stays nil. Approx mode scans one bucket and never polls.
func TestSearchBatchStops(t *testing.T) {
	tree := mustBuild(t, clusteredPoints(5000, 48), Config{BucketSize: 64}, 49)
	queries := equivalenceQueries(200, 50)
	for _, spec := range []Spec{
		{Mode: Approx, K: 4}, {Mode: Exact, K: 4},
		{Mode: Checks, K: 4, Checks: 500}, {Mode: Radius, Radius: 1},
	} {
		for _, dst := range [][]nn.Neighbor{nil, make([]nn.Neighbor, 2, 64)} {
			// Stop at the second poll, once one bucket has been scanned,
			// so a stopped search has partial results it must drop.
			stops := 0
			for _, q := range queries {
				polls := 0
				stop := func() bool { polls++; return polls > 1 }
				res, _, stopped := tree.SearchInto(q, spec, NewScratch(), dst, stop)
				if spec.Mode == Approx {
					if stopped || polls != 0 || len(res) == len(dst) {
						t.Fatalf("approx SearchInto: stopped %v after %d polls, %d results", stopped, polls, len(res))
					}
					continue
				}
				if !stopped {
					continue
				}
				stops++
				if len(res) != len(dst) || (res == nil) != (dst == nil) {
					t.Fatalf("mode %d SearchInto: stopped with %d results from a dst of %d (nil %v)",
						spec.Mode, len(res), len(dst), dst == nil)
				}
			}
			if spec.Mode != Approx && stops == 0 {
				t.Fatalf("mode %d SearchInto: no query stopped", spec.Mode)
			}
		}
		for _, workers := range []int{1, 3} {
			var polls atomic.Int64
			stop := func() bool { return polls.Add(1) > 5 }
			results := make([][]nn.Neighbor, len(queries))
			stats, _, stopped := tree.SearchBatch(queries, spec, workers, results, stop)
			if !stopped {
				t.Fatalf("mode %d workers %d: batch ran to completion past its stop", spec.Mode, workers)
			}
			if stats.BucketsVisited >= len(queries) {
				t.Fatalf("mode %d workers %d: %d buckets visited after stopping", spec.Mode, workers, stats.BucketsVisited)
			}
		}
	}
}
