package kdtree

import (
	"math/rand"
	"sort"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/obs"
)

// Build constructs a tree from points using the paper's two-phase method
// (Fig. 2): sample a subset, recursively sort-and-split it along cycling
// dimensions to form the tree structure, then place every point into a
// bucket by traversal.
//
// rng drives the sampling; pass a seeded source for reproducibility. Build
// panics if points is empty.
func Build(points []geom.Point, cfg Config, rng *rand.Rand) *Tree {
	t := BuildStructure(points, cfg, rng)
	t.placeInto(points)
	return t
}

// BuildStructure runs only the first construction phase — sampling and
// split creation — leaving every bucket empty. The architecture simulator
// uses it so that point placement can be driven (and timed) explicitly.
// The split recursion fans out across subtrees (ingest.go); the resulting
// structure is byte-identical for any worker count.
func BuildStructure(points []geom.Point, cfg Config, rng *rand.Rand) *Tree {
	if len(points) == 0 {
		panic("kdtree: Build requires at least one point")
	}
	cfg = cfg.withDefaults(len(points))
	t := &Tree{cfg: cfg, root: nilIdx}
	workers := t.ingestWorkers()
	sw := obs.StartStopwatch()
	sc := getSampleScratch()
	sample := samplePointsInto(sc, points, cfg.SampleSize, rng)
	if len(sample) < parallelBuildMin {
		workers = 1
	}
	t.root = t.fanSplits(sample, workers)
	putSampleScratch(sc)
	t.lastIngest = IngestTiming{SplitsSeconds: sw.Seconds(), Workers: workers}
	return t
}

// pointSet is a point slice with (optionally) the points' indices in the
// original reference slice, kept in lockstep during sorting.
type pointSet struct {
	pts  []geom.Point
	idxs []int32 // may be nil when indices are not tracked
}

func (s pointSet) slice(lo, hi int) pointSet {
	out := pointSet{pts: s.pts[lo:hi]}
	if s.idxs != nil {
		out.idxs = s.idxs[lo:hi]
	}
	return out
}

type byAxis struct {
	pointSet
	axis geom.Axis
}

func (b byAxis) Len() int { return len(b.pts) }
func (b byAxis) Less(i, j int) bool {
	return b.pts[i].Coord(b.axis) < b.pts[j].Coord(b.axis)
}
func (b byAxis) Swap(i, j int) {
	b.pts[i], b.pts[j] = b.pts[j], b.pts[i]
	if b.idxs != nil {
		b.idxs[i], b.idxs[j] = b.idxs[j], b.idxs[i]
	}
}

// chooseSplit sorts the set along the widest-spread axis and splits at
// the median (Fig. 2b–c; axis selection per Friedman et al. [26], which
// matters on LiDAR frames whose z extent is far smaller than x/y —
// cycling blindly through z costs accuracy). prefer breaks spread ties.
// If every value is identical on the chosen axis the next-widest is
// tried; ok=false means the set cannot be split at all.
func chooseSplit(s pointSet, prefer geom.Axis) (axis geom.Axis, threshold float32, lo, hi pointSet, ok bool) {
	order := axesBySpread(s.pts, prefer)
	for try := 0; try < geom.Dims; try++ {
		axis = order[try]
		sort.Sort(byAxis{pointSet: s, axis: axis})
		mid := len(s.pts) / 2
		threshold = s.pts[mid].Coord(axis)
		// Points with coord < threshold go left; ensure both sides are
		// non-empty by moving the split index to the first occurrence of
		// the threshold value.
		first := sort.Search(len(s.pts), func(i int) bool {
			return s.pts[i].Coord(axis) >= threshold
		})
		if first == 0 {
			// threshold equals the minimum: everything would go right.
			// Try splitting at the first strictly-greater value instead.
			above := sort.Search(len(s.pts), func(i int) bool {
				return s.pts[i].Coord(axis) > threshold
			})
			if above == len(s.pts) {
				continue // constant along this axis
			}
			threshold = s.pts[above].Coord(axis)
			first = above
		}
		return axis, threshold, s.slice(0, first), s.slice(first, len(s.pts)), true
	}
	return 0, 0, pointSet{}, pointSet{}, false
}

// axesBySpread returns the three axes ordered by decreasing coordinate
// spread, breaking ties in favour of prefer.
func axesBySpread(pts []geom.Point, prefer geom.Axis) [geom.Dims]geom.Axis {
	b := geom.Bounds(pts)
	size := b.Size()
	var spread [geom.Dims]float64
	for a := geom.AxisX; a < geom.Dims; a++ {
		spread[a] = float64(size.Coord(a))
	}
	order := [geom.Dims]geom.Axis{geom.AxisX, geom.AxisY, geom.AxisZ}
	better := func(a, b geom.Axis) bool {
		if spread[a] != spread[b] {
			return spread[a] > spread[b]
		}
		// Tie: prefer the caller's axis, then lower index.
		if a == prefer || b == prefer {
			return a == prefer
		}
		return a < b
	}
	for i := 1; i < geom.Dims; i++ {
		for j := i; j > 0 && better(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// side reports which child a coordinate descends to: left when
// coord < threshold, right otherwise. Every traversal in the repository —
// software and modelled hardware — uses this single definition.
func (n Node) side(p geom.Point) int32 {
	if p.Coord(n.Axis) < n.Threshold {
		return n.Left
	}
	return n.Right
}

// FindLeaf traverses from the root to the leaf whose region contains p,
// returning the leaf node id, its bucket id, and the number of internal
// nodes visited (the traversal depth the hardware workers pay for).
func (t *Tree) FindLeaf(p geom.Point) (leaf int32, bucket int32, depth int) {
	idx := t.root
	for {
		nd := t.nodes[idx]
		if nd.Leaf() {
			return idx, nd.Bucket, depth
		}
		idx = nd.side(p)
		depth++
	}
}

// FindLeafBits is FindLeaf augmented with the descent's direction bits
// (bit i from the top: 1 = right at level i), the representation the
// parallel-traversal model consumes.
func (t *Tree) FindLeafBits(p geom.Point) (bucket int32, bits uint64, depth int) {
	idx := t.root
	for {
		nd := t.nodes[idx]
		if nd.Leaf() {
			return nd.Bucket, bits, depth
		}
		next := nd.side(p)
		bits <<= 1
		if next == nd.Right {
			bits |= 1
		}
		idx = next
		depth++
	}
}

// Insert places a single point (with its reference index) into its bucket
// and returns the bucket id.
func (t *Tree) Insert(p geom.Point, index int) int32 {
	_, b, _ := t.FindLeaf(p)
	t.bucketAppend(b, p, int32(index))
	return b
}

// Place inserts points into the buckets by traversal (phase 2 of
// construction, and the whole of TBuild's per-frame work in static-tree
// mode). Indices are positions within the given slice. Bucket spans grown
// during placement retire their old arena slots; Place compacts the arena
// afterwards if the holes came to dominate.
// Place runs as a two-phase plan/scatter (ingest.go) — a read-only
// leaf-assignment pass plus leaf-disjoint arena fills, both fanned over
// the ingest workers — that lays every live span out exactly where
// inserting the points one by one (Insert) would.
func (t *Tree) Place(points []geom.Point) {
	t.lastIngest = IngestTiming{}
	t.placeInto(points)
}

// placeInto is Place without the timing reset, so composite operations
// (Build, UpdateFrame) accumulate placement timings next to their other
// phases.
func (t *Tree) placeInto(points []geom.Point) {
	workers := t.ingestWorkers()
	if len(points) < parallelPlaceMin {
		workers = 1
	}
	sw := obs.StartStopwatch()
	t.lastIngest.Workers = workers
	pl := getPlacePlan()
	vlen, holes := t.planPlace(points, pl, workers)
	plan := sw.Seconds()
	t.scatterPlace(points, pl, vlen, holes, workers)
	putPlacePlan(pl)
	total := sw.Seconds()
	t.lastIngest.PlanSeconds = plan
	t.lastIngest.ScatterSeconds = total - plan
	t.lastIngest.PlaceSeconds = total
	t.maybeCompact()
}

// ResetBuckets empties every bucket while keeping the split structure —
// the "static tree" reuse mode of §4.4: thresholds stay fixed, only the
// buckets are refilled each frame. Arena spans keep their capacity, so
// re-placing a same-shaped frame touches no allocator at all. Every box
// empties with its bucket.
func (t *Tree) ResetBuckets() {
	for i := range t.buckets {
		if t.buckets[i].live {
			t.buckets[i].n = 0
			t.boxes[i] = emptyBox
		}
	}
}
