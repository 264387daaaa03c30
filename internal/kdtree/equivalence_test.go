package kdtree

import (
	"bytes"
	"container/heap"
	"math/rand"
	"sort"
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

// refSearchExact is the classic recursive backtracking search.
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

func TestSearchExactMatchesReference(t *testing.T) {
	queries := equivalenceQueries(60, 43)
	for name, tree := range treeVariants(t) {
		for _, k := range []int{1, 5, 16} {
			for _, q := range queries {
				want, wantStats := refSearchExact(tree, q, k)
				got, gotStats := tree.SearchExact(q, k)
				diffNeighbors(t, name+"/exact", got, want, gotStats, wantStats)
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
				got, gotStats := tree.SearchChecks(q, 8, checks)
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
				got, gotStats := tree.SearchRadius(q, r)
				diffNeighbors(t, name+"/radius", got, want, gotStats, wantStats)
			}
		}
	}
}

// TestSearchAllMatchesSingles pins the flat-backing batch fan-outs to the
// single-query searches they wrap.
func TestSearchAllMatchesSingles(t *testing.T) {
	for name, tree := range treeVariants(t) {
		queries := equivalenceQueries(128, 46)
		const k = 10
		gotA, statsA := tree.SearchAllApprox(queries, k)
		gotE, statsE := tree.SearchAllExact(queries, k)
		var wantStatsA, wantStatsE SearchStats
		for qi, q := range queries {
			wa, sa := tree.SearchApprox(q, k)
			wantStatsA.Add(sa)
			diffNeighbors(t, name+"/all-approx", gotA[qi], wa, SearchStats{}, SearchStats{})
			we, se := tree.SearchExact(q, k)
			wantStatsE.Add(se)
			diffNeighbors(t, name+"/all-exact", gotE[qi], we, SearchStats{}, SearchStats{})
		}
		if statsA != wantStatsA {
			t.Fatalf("%s: SearchAllApprox stats %+v, want %+v", name, statsA, wantStatsA)
		}
		if statsE != wantStatsE {
			t.Fatalf("%s: SearchAllExact stats %+v, want %+v", name, statsE, wantStatsE)
		}
	}
}
