package kdtree

import (
	"math"
	"math/rand"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// The reference builder: the one-at-a-time algorithms that the ingest
// engine (ingest.go, update.go) reorganizes into plan/stage/commit
// phases — a plain recursive split build, Insert per point, and a
// rebalance pass that collects, rebuilds and frees one subtree at a
// time, in list order. It is the equivalence oracle of ingest_test.go:
// at every worker count, the engine's trees must be byte-equal to the
// reference's (requireTreesByteEqual).
//
// The file also holds the tight-rule exact search oracle
// (refSearchExactTight), the recursive form of searchExactCore under
// tightBounds with every bucket box recomputed from the bucket's points.

// refBuild is Build done one step at a time.
func refBuild(points []geom.Point, cfg Config, rng *rand.Rand) *Tree {
	cfg = cfg.withDefaults(len(points))
	t := &Tree{cfg: cfg, root: nilIdx}
	sc := getSampleScratch()
	t.root = refSplits(t, samplePointsInto(sc, points, cfg.SampleSize, rng), geom.AxisX, 0, nilIdx)
	putSampleScratch(sc)
	refPlace(t, points)
	return t
}

// refSplits recursively creates the split structure over the sample and
// returns the subtree root. Leaves get empty buckets.
func refSplits(t *Tree, sample []geom.Point, axis geom.Axis, depth int, parent int32) int32 {
	idx := t.node()
	t.nodes[idx].Parent = parent
	if depth >= t.cfg.MaxDepth || len(sample) < t.cfg.MinSamplePoints {
		t.nodes[idx].Bucket = t.bucket(idx)
		return idx
	}
	splitAxis, threshold, lo, hi, ok := chooseSplit(pointSet{pts: sample}, axis)
	if !ok {
		t.nodes[idx].Bucket = t.bucket(idx)
		return idx
	}
	t.nodes[idx].Axis = splitAxis
	t.nodes[idx].Threshold = threshold
	t.nodes[idx].Left = refSplits(t, lo.pts, splitAxis.Next(), depth+1, idx)
	t.nodes[idx].Right = refSplits(t, hi.pts, splitAxis.Next(), depth+1, idx)
	return idx
}

// refPlace is Place as one Insert per point.
func refPlace(t *Tree, points []geom.Point) {
	for i, p := range points {
		t.Insert(p, i)
	}
	t.maybeCompact()
}

// refUpdateFrame is UpdateFrame over refPlace and refRebalance.
func refUpdateFrame(t *Tree, points []geom.Point, lower, upper int) UpdateResult {
	t.ResetBuckets()
	refPlace(t, points)
	if lower <= 0 {
		lower = t.cfg.BucketSize / 2
	}
	if upper <= 0 {
		upper = t.cfg.BucketSize * 2
	}
	res, _ := refRebalance(t, lower, upper)
	return res
}

// refRebalance is Rebalance with one rebuild at a time, exactly in list
// order: each admitted merge or split collects its subtree (freeing
// slots at once), then rebuilds it, before the next is looked at. It
// also counts the resurrected merges: delinquent-list entries whose node
// slot an earlier rebuild of the same round freed and a later one
// reused as a new delinquent leaf — the case the engine re-checks and
// rebuilds inline at commit time.
func refRebalance(t *Tree, lower, upper int) (res UpdateResult, resurrected int) {
	var freed freedSet
	freed.reset(len(t.nodes))
	for round := 0; ; round++ {
		del := t.collectDelinquent(lower)
		if len(del) == 0 || round > 64 {
			break
		}
		merged := 0
		roundFreed := map[int32]bool{}
		for _, d := range del {
			if freed.has(d.node) {
				continue
			}
			nd := t.nodes[d.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue
			}
			merged++
			if roundFreed[d.node] {
				resurrected++
			}
			for _, f := range refRebuildAt(t, nd.Parent, upper, &freed, &res) {
				roundFreed[f] = true
			}
		}
		res.Merged += merged
		if merged == 0 {
			break
		}
	}
	for _, leaf := range t.collectOversized(upper) {
		res.Split++
		refRebuildAt(t, leaf, upper, &freed, &res)
	}
	t.maybeCompact()
	return res, resurrected
}

// refRebuildAt replaces the subtree rooted at idx (which keeps its node
// slot and parent link) with a fresh subtree over its points, and
// returns the node slots its collection freed.
func refRebuildAt(t *Tree, idx int32, target int, freed *freedSet, res *UpdateResult) []int32 {
	var s pointSet
	before := len(t.freeNodes)
	refCollect(t, idx, &s, freed, true)
	freedNodes := append([]int32(nil), t.freeNodes[before:]...)
	res.PointsResorted += len(s.pts)
	refRebuildNode(t, idx, s, geom.Axis(t.depthOf(idx)%geom.Dims), target, freed, res)
	return freedNodes
}

// refCollect gathers all points below idx in DFS order, pushing each
// freed bucket and child node onto the free lists as it goes.
func refCollect(t *Tree, idx int32, s *pointSet, freed *freedSet, keepRoot bool) {
	nd := t.nodes[idx]
	if nd.Leaf() {
		s.pts = t.AppendBucketPoints(s.pts, nd.Bucket)
		s.idxs = append(s.idxs, t.BucketIndices(nd.Bucket)...)
		t.retireBucket(nd.Bucket)
		t.freeBuckets = append(t.freeBuckets, nd.Bucket)
	} else {
		refCollect(t, nd.Left, s, freed, false)
		refCollect(t, nd.Right, s, freed, false)
	}
	if keepRoot {
		t.nodes[idx].Left = nilIdx
		t.nodes[idx].Right = nilIdx
		t.nodes[idx].Bucket = nilIdx
		return
	}
	freed.mark(idx)
	t.freeNodes = append(t.freeNodes, idx)
}

// refRebuildNode builds a subtree in place at idx over s, splitting
// groups larger than target at the median along cycling axes.
func refRebuildNode(t *Tree, idx int32, s pointSet, axis geom.Axis, target int, freed *freedSet, res *UpdateResult) {
	makeLeaf := func() {
		b := t.bucket(idx)
		t.nodes[idx].Bucket = b
		t.fillBucket(b, s.pts, s.idxs)
	}
	if len(s.pts) <= target {
		makeLeaf()
		return
	}
	splitAxis, threshold, lo, hi, ok := chooseSplit(s, axis)
	if !ok {
		makeLeaf()
		return
	}
	left := t.node()
	right := t.node()
	freed.unmark(left)
	freed.unmark(right)
	res.NodesRebuilt += 2
	t.nodes[idx].Axis = splitAxis
	t.nodes[idx].Threshold = threshold
	t.nodes[idx].Left = left
	t.nodes[idx].Right = right
	t.nodes[left].Parent = idx
	t.nodes[right].Parent = idx
	refRebuildNode(t, left, lo, splitAxis.Next(), target, freed, res)
	refRebuildNode(t, right, hi, splitAxis.Next(), target, freed, res)
}

// refSearchExactTight is the recursive backtracking search under the
// tight rule, the oracle for Exact mode's answers and stats (the
// plane-rule oracle, refSearchExact in equivalence_test.go, pins
// SearchExactBuckets). A far child carries its parent's per-axis offsets
// with the split axis replaced by the split offset, and is entered only
// while its cell bound is below the k-th distance; once the list is
// full, a bucket is scanned only while the distance to its box — taken
// by brute force over the bucket's points, never from the tree's stored
// boxes — is below the k-th distance.
func refSearchExactTight(t *Tree, q geom.Point, k int) ([]nn.Neighbor, SearchStats) {
	tk := nn.NewTopK(k)
	var stats SearchStats
	qc := [3]float64{float64(q.X), float64(q.Y), float64(q.Z)}
	var rec func(idx int32, off [3]float64)
	rec = func(idx int32, off [3]float64) {
		nd := t.nodes[idx]
		if nd.Leaf() {
			if w, full := tk.Worst(); full && refBoxDistSq(t.AppendBucketPoints(nil, nd.Bucket), qc) >= w {
				return
			}
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
		rec(near, off)
		off[nd.Axis] = qc[nd.Axis] - float64(nd.Threshold)
		if w, full := tk.Worst(); !full || off[0]*off[0]+off[1]*off[1]+off[2]*off[2] < w {
			rec(far, off)
		}
	}
	rec(t.root, [3]float64{})
	return tk.Results(), stats
}

// refBoxDistSq is the squared distance from q to the bounding box of
// pts (+Inf for no points), summed in scanBucket's shape.
func refBoxDistSq(pts []geom.Point, q [3]float64) float64 {
	var sum float64
	for a := geom.AxisX; a < geom.Dims; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo = math.Min(lo, float64(p.Coord(a)))
			hi = math.Max(hi, float64(p.Coord(a)))
		}
		var d float64
		switch {
		case q[a] < lo:
			d = lo - q[a]
		case q[a] > hi:
			d = q[a] - hi
		}
		sum += d * d
	}
	return sum
}
