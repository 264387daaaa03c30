package kdtree

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/quicknn/quicknn/internal/geom"
)

// This file is the ingest engine (docs/performance.md): the plan/scatter
// Place, the subtree-fanned structure build, and the shared worker and
// scratch machinery they and the phased Rebalance (update.go) run on.
// It is the only ingest path; at one worker every fan-out runs inline on
// the caller. For any worker count the resulting tree — node and bucket
// numbering, free lists, hole count, every live arena span — is
// byte-identical to what the one-at-a-time reference algorithms produce
// (recursive splits, Insert per point, one rebuild at a time; kept as the
// test oracle in reference_test.go), so query answers (down to
// tie-breaks, which depend on bucket scan order) cannot change with
// Parallelism. Workers only ever touch disjoint state: read-only
// traversals in the plan phases, leaf-disjoint arena spans in the
// scatter phase, and privately staged node arrays everywhere a subtree
// is built; all allocation and free-list traffic stays on the calling
// goroutine, in reference order.

// IngestTiming is the phase breakdown of the most recent ingest
// operation on a tree: structure build (sampling + splits), point
// placement (split into the read-only planning pass and the arena
// scatter), and rebalancing. A composite operation (Build, UpdateFrame)
// reports every phase it ran; phases the operation does not have stay
// zero.
type IngestTiming struct {
	// SplitsSeconds covers sampling and split construction
	// (BuildStructure's work).
	SplitsSeconds float64
	// PlanSeconds and ScatterSeconds split PlaceSeconds into the
	// read-only leaf-assignment/layout-planning pass and the arena fill.
	PlanSeconds    float64
	ScatterSeconds float64
	// PlaceSeconds covers point placement end to end.
	PlaceSeconds float64
	// RebalanceSeconds covers the merge/split rebalancing pass.
	RebalanceSeconds float64
	// Workers is the resolved worker count the operation used.
	Workers int
}

// LastIngest returns the phase timings of the most recent mutation
// operation (Build/BuildStructure/Place/UpdateFrame/Rebalance).
func (t *Tree) LastIngest() IngestTiming { return t.lastIngest }

// SetParallelism adjusts the ingest worker budget after construction,
// cloning, or deserialization: 0 restores the GOMAXPROCS default, 1 =
// one worker. Any setting yields byte-identical trees.
func (t *Tree) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	t.cfg.Parallelism = n
}

// ingestWorkers resolves the ingest worker budget: cfg.Parallelism when
// positive, else GOMAXPROCS. Resolved at use time rather than in
// withDefaults so deserialized trees — whose persisted config predates
// the knob — still parallelize by default.
func (t *Tree) ingestWorkers() int {
	if w := t.cfg.Parallelism; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Fan-out thresholds: below these sizes the goroutine handoff outweighs
// the win, so the phase runs at one worker even when more are available.
const (
	// parallelPlaceMin is the minimum frame size for a multi-worker Place.
	parallelPlaceMin = 2048
	// parallelBuildMin is the minimum sample size for a multi-worker
	// structure build.
	parallelBuildMin = 256
	// planChunk is the leaf-assignment work-unit size: big enough that
	// the atomic cursor is cold, small enough to balance skewed frames.
	planChunk = 1024
)

// runTasks runs fn(0..n-1) on up to `workers` goroutines pulling from an
// atomic cursor, inline when one worker (or one task) makes the fan-out
// pointless. Tasks must touch disjoint state; runTasks imposes no order.
func runTasks(workers, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// freedSet is the rebalance pass's reusable freed-node set: a
// generation-stamped array standing in for the historical per-call
// map[int32]bool, so steady-state UpdateFrame rounds allocate nothing.
// mark/unmark mirror the map's set/delete; reset opens a new generation
// in O(1).
type freedSet struct {
	gen []uint32
	cur uint32
}

func (f *freedSet) reset(n int) {
	f.cur++
	if f.cur == 0 {
		// Generation counter wrapped: stale stamps from 2^32 resets ago
		// would read as current, so clear them once.
		for i := range f.gen {
			f.gen[i] = 0
		}
		f.cur = 1
	}
	if n > len(f.gen) {
		f.gen = append(f.gen, make([]uint32, n-len(f.gen))...)
	}
}

func (f *freedSet) mark(i int32) {
	if int(i) >= len(f.gen) {
		f.gen = append(f.gen, make([]uint32, int(i)+1-len(f.gen))...)
	}
	f.gen[i] = f.cur
}

func (f *freedSet) unmark(i int32) {
	if int(i) < len(f.gen) {
		f.gen[i] = 0
	}
}

func (f *freedSet) has(i int32) bool {
	return int(i) < len(f.gen) && f.gen[i] == f.cur
}

// sampleScratch is the pooled buffer pair of the sampling phase: the
// index permutation and the sample itself. The sample is consumed
// within BuildStructure (split thresholds copy values out; no reference
// to the buffer survives the call), so the buffers recycle across
// builds.
type sampleScratch struct {
	perm []int32
	pts  []geom.Point
}

var sampleScratchPool = sync.Pool{New: func() interface{} { return new(sampleScratch) }}

func getSampleScratch() *sampleScratch   { return sampleScratchPool.Get().(*sampleScratch) }
func putSampleScratch(sc *sampleScratch) { sampleScratchPool.Put(sc) }

// samplePointsInto selects n points without replacement (all points
// when n >= len(points)) into sc's pooled buffer. Selection swaps
// indices in a permutation array and copies only the n chosen points,
// replacing the historical copy-the-whole-slice implementation that
// cost an O(N) allocation per build; the rng draw sequence is
// identical, so the sample — and every tree built from it — is too.
func samplePointsInto(sc *sampleScratch, points []geom.Point, n int, rng *rand.Rand) []geom.Point {
	if n >= len(points) {
		n = len(points)
		if cap(sc.pts) < n {
			sc.pts = make([]geom.Point, n)
		}
		sc.pts = sc.pts[:n]
		copy(sc.pts, points)
		return sc.pts
	}
	sc.perm = sized32(sc.perm, len(points))
	for i := range sc.perm {
		sc.perm[i] = int32(i)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(points)-i)
		sc.perm[i], sc.perm[j] = sc.perm[j], sc.perm[i]
	}
	if cap(sc.pts) < n {
		sc.pts = make([]geom.Point, n)
	}
	sc.pts = sc.pts[:n]
	for i := range sc.pts {
		sc.pts[i] = points[sc.perm[i]]
	}
	return sc.pts
}

// placePlan is the pooled workspace of plan/scatter Place: the per-point
// leaf assignment, the counting-sort grouping of points by destination
// bucket, and the simulated final layout of every bucket span. All
// slices are length-managed by sized32, so a warm plan allocates nothing.
type placePlan struct {
	leaf   []int32 // per point: destination bucket id
	starts []int32 // per bucket: group start in order (len nb+1)
	cursor []int32
	order  []int32 // point positions grouped by destination bucket

	oOff []int32 // per bucket: span offset before placement
	oN   []int32 // per bucket: occupancy before placement
	vOff []int32 // per bucket: simulated final span offset
	vCap []int32 // per bucket: simulated final span capacity
	vN   []int32 // per bucket: simulated final occupancy
}

var placePlanPool = sync.Pool{New: func() interface{} { return new(placePlan) }}

func getPlacePlan() *placePlan   { return placePlanPool.Get().(*placePlan) }
func putPlacePlan(pl *placePlan) { placePlanPool.Put(pl) }

// planPlace is the read-only half of Place. It assigns every point its
// destination bucket (fanned over workers — tree and arena are not
// written), groups the points per bucket with a stable counting sort,
// and then replays, in input order, the bucketAppend/growBucket
// arithmetic that inserting the points one by one would execute: which
// buckets relocate where, how many slots they retire, and how far the
// arena tail grows. It returns the simulated final arena length and the
// retired-slot count.
func (t *Tree) planPlace(points []geom.Point, pl *placePlan, workers int) (vlen int32, holes int) {
	n := len(points)
	nb := len(t.buckets)
	pl.leaf = sized32(pl.leaf, n)
	pl.order = sized32(pl.order, n)
	pl.starts = sized32(pl.starts, nb+1)
	pl.cursor = sized32(pl.cursor, nb)
	pl.oOff = sized32(pl.oOff, nb)
	pl.oN = sized32(pl.oN, nb)
	pl.vOff = sized32(pl.vOff, nb)
	pl.vCap = sized32(pl.vCap, nb)
	pl.vN = sized32(pl.vN, nb)

	// Leaf assignment: chunked read-only descents. The single-worker
	// path avoids the closure so a warm plan stays allocation-free.
	if workers <= 1 {
		for i, p := range points {
			_, b, _ := t.FindLeaf(p)
			pl.leaf[i] = b
		}
	} else {
		chunks := (n + planChunk - 1) / planChunk
		runTasks(workers, chunks, func(c int) {
			lo := c * planChunk
			hi := lo + planChunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				_, b, _ := t.FindLeaf(points[i])
				pl.leaf[i] = b
			}
		})
	}

	// Stable counting sort: group point positions by destination bucket,
	// input order preserved within each group (scan order inside a
	// bucket decides top-k tie-breaks, so stability is load-bearing).
	for b := 0; b <= nb; b++ {
		pl.starts[b] = 0
	}
	for i := 0; i < n; i++ {
		pl.starts[pl.leaf[i]+1]++
	}
	for b := 0; b < nb; b++ {
		pl.starts[b+1] += pl.starts[b]
		pl.cursor[b] = pl.starts[b]
	}
	for i := 0; i < n; i++ {
		b := pl.leaf[i]
		pl.order[pl.cursor[b]] = int32(i)
		pl.cursor[b]++
	}

	// Layout simulation. Growth interleaves across buckets in input
	// order (bucket A may relocate between two relocations of bucket B),
	// so tail offsets are only reproducible by replaying per point.
	for b := range t.buckets {
		bk := &t.buckets[b]
		pl.oOff[b], pl.oN[b] = bk.off, bk.n
		pl.vOff[b], pl.vCap[b], pl.vN[b] = bk.off, bk.cap, bk.n
	}
	vlen = int32(len(t.arenaIdx))
	for i := 0; i < n; i++ {
		b := pl.leaf[i]
		if pl.vN[b] == pl.vCap[b] {
			holes += int(pl.vCap[b])
			newCap := max(pl.vCap[b]*2, 8)
			pl.vOff[b] = vlen
			pl.vCap[b] = newCap
			vlen += newCap
		}
		pl.vN[b]++
	}
	return vlen, holes
}

// scatterPlace materializes the planned layout: one bulk arena
// extension, then per-bucket shards that fill each final span — prior
// content first, then the bucket's new points in input order. Final
// spans are pairwise disjoint by construction, so shards run
// concurrently. Vacated spans are only counted as holes; nothing reads
// a hole slot, so they keep whatever they held. Bucket metadata and hole
// accounting commit on the caller afterwards.
func (t *Tree) scatterPlace(points []geom.Point, pl *placePlan, vlen int32, holes, workers int) {
	if grow := vlen - int32(len(t.arenaIdx)); grow > 0 {
		t.arenaReserve(grow)
	}
	nb := len(t.buckets)
	// One worker runs the shards without the closure, so a warm Place
	// allocates nothing.
	if workers <= 1 {
		for b := 0; b < nb; b++ {
			t.scatterBucket(points, pl, b)
		}
	} else {
		runTasks(workers, nb, func(b int) { t.scatterBucket(points, pl, b) })
	}
	for b := 0; b < nb; b++ {
		bk := &t.buckets[b]
		if !bk.live {
			continue
		}
		bk.off, bk.n, bk.cap = pl.vOff[b], pl.vN[b], pl.vCap[b]
	}
	t.arenaHole += holes
}

// scatterBucket fills bucket b's planned final span: its prior content
// (moved when the bucket relocates), then its new points in input order,
// and extends the bucket's box over the new points (the prior content's
// box is already current).
func (t *Tree) scatterBucket(points []geom.Point, pl *placePlan, b int) {
	group := pl.order[pl.starts[b]:pl.starts[b+1]]
	off, n0 := pl.vOff[b], pl.oN[b]
	if off != pl.oOff[b] && n0 > 0 {
		t.arenaMove(off, pl.oOff[b], n0)
	}
	w := off + n0
	for _, pi := range group {
		t.arenaSet(w, points[pi], pi)
		w++
	}
	t.boxes[b].extend(t.arenaX[off+n0:w], t.arenaY[off+n0:w], t.arenaZ[off+n0:w])
}

// stagedNode is one node of a privately staged subtree (the fanned
// structure build and the phased rebalance both stage): the split
// decision plus links into the same staged array. Rebalance staging
// additionally records each leaf's [lo,hi) range into the task's
// collected point buffers.
type stagedNode struct {
	axis      geom.Axis
	threshold float32
	left      int32
	right     int32
	lo, hi    int32
	leaf      bool
}

// splitTask is one frontier subtree of the fanned structure build.
type splitTask struct {
	sample []geom.Point
	axis   geom.Axis
	depth  int
	nodes  []stagedNode
	root   int32
}

// fanDepth is the depth at which the structure build hands subtrees to
// workers: the shallowest level with at least 4 subtrees per worker
// (over-decomposition absorbs the skew of uneven median splits),
// clamped to the configured depth cap.
func (t *Tree) fanDepth(workers int) int {
	fd := 1
	for 1<<uint(fd) < 4*workers && fd < 16 {
		fd++
	}
	return max(min(fd, t.cfg.MaxDepth), 1)
}

// fanSplits creates the split structure over the sample and returns its
// root. Leaves get empty buckets; Place fills them. The recursion fans
// out at fanDepth: a descent on the caller over the top of the tree
// produces disjoint frontier tasks, workers stage each task's subtree
// into a private node array (chooseSplit sorts disjoint sample
// sub-slices in place, so tasks never touch shared memory), and a
// preorder stitch on the caller emits the staged nodes through
// t.node()/t.bucket() — the allocation order of a plain recursive
// build, so node and bucket numbering come out identical for any
// worker count.
func (t *Tree) fanSplits(sample []geom.Point, workers int) int32 {
	fan := t.fanDepth(workers)
	var top []stagedNode
	var tasks []splitTask
	var descend func(s []geom.Point, axis geom.Axis, depth int) int32
	descend = func(s []geom.Point, axis geom.Axis, depth int) int32 {
		if depth >= fan {
			tasks = append(tasks, splitTask{sample: s, axis: axis, depth: depth})
			return ^int32(len(tasks) - 1)
		}
		si := int32(len(top))
		top = append(top, stagedNode{})
		if depth >= t.cfg.MaxDepth || len(s) < t.cfg.MinSamplePoints {
			top[si].leaf = true
			return si
		}
		splitAxis, threshold, lo, hi, ok := chooseSplit(pointSet{pts: s}, axis)
		if !ok {
			top[si].leaf = true
			return si
		}
		l := descend(lo.pts, splitAxis.Next(), depth+1)
		r := descend(hi.pts, splitAxis.Next(), depth+1)
		top[si] = stagedNode{axis: splitAxis, threshold: threshold, left: l, right: r}
		return si
	}
	rootRef := descend(sample, geom.AxisX, 0)
	runTasks(workers, len(tasks), func(i int) {
		tk := &tasks[i]
		tk.root = stageSplits(&tk.nodes, tk.sample, tk.axis, tk.depth, t.cfg)
	})
	var emitStaged func(nodes []stagedNode, si, parent int32) int32
	emitStaged = func(nodes []stagedNode, si, parent int32) int32 {
		idx := t.node()
		t.nodes[idx].Parent = parent
		sn := nodes[si]
		if sn.leaf {
			t.nodes[idx].Bucket = t.bucket(idx)
			return idx
		}
		t.nodes[idx].Axis = sn.axis
		t.nodes[idx].Threshold = sn.threshold
		t.nodes[idx].Left = emitStaged(nodes, sn.left, idx)
		t.nodes[idx].Right = emitStaged(nodes, sn.right, idx)
		return idx
	}
	var emitTop func(ref, parent int32) int32
	emitTop = func(ref, parent int32) int32 {
		if ref < 0 {
			tk := &tasks[^ref]
			return emitStaged(tk.nodes, tk.root, parent)
		}
		idx := t.node()
		t.nodes[idx].Parent = parent
		sn := top[ref]
		if sn.leaf {
			t.nodes[idx].Bucket = t.bucket(idx)
			return idx
		}
		t.nodes[idx].Axis = sn.axis
		t.nodes[idx].Threshold = sn.threshold
		t.nodes[idx].Left = emitTop(sn.left, idx)
		t.nodes[idx].Right = emitTop(sn.right, idx)
		return idx
	}
	return emitTop(rootRef, nilIdx)
}

// stageSplits is the recursive split build against a private staged
// array: leaf conditions and chooseSplit calls, no tree mutation.
func stageSplits(nodes *[]stagedNode, s []geom.Point, axis geom.Axis, depth int, cfg Config) int32 {
	si := int32(len(*nodes))
	*nodes = append(*nodes, stagedNode{})
	if depth >= cfg.MaxDepth || len(s) < cfg.MinSamplePoints {
		(*nodes)[si].leaf = true
		return si
	}
	splitAxis, threshold, lo, hi, ok := chooseSplit(pointSet{pts: s}, axis)
	if !ok {
		(*nodes)[si].leaf = true
		return si
	}
	l := stageSplits(nodes, lo.pts, splitAxis.Next(), depth+1, cfg)
	r := stageSplits(nodes, hi.pts, splitAxis.Next(), depth+1, cfg)
	(*nodes)[si] = stagedNode{axis: splitAxis, threshold: threshold, left: l, right: r}
	return si
}
