// Package kdtree implements the bucketed k-d tree at the heart of QuickNN
// (§2.2, §4 of the paper): a binary tree whose internal nodes hold
// axis-aligned split thresholds and whose leaves hold "buckets" of points.
//
// The package provides the full algorithmic surface the paper relies on:
//
//   - two-phase construction — build the splits from a sampled subset, then
//     place every point into a bucket (Fig. 2);
//   - approximate search — traverse to the nearest bucket and scan it;
//   - exact search — approximate search plus backtracking;
//   - static reuse and incremental update — reuse the splits across frames,
//     with merge/split rebalancing to keep buckets bounded (§4.4);
//   - accuracy measurement against exact results (Fig. 3).
//
// Nodes are stored in a flat slice with int32 links, matching the pointer
// structure the hardware keeps in its on-chip tree cache and making node
// count and byte-size accounting exact for the architecture models.
package kdtree

import (
	"fmt"
	"sort"

	"github.com/quicknn/quicknn/internal/geom"
)

// NodeBytes is the external representation size of one tree node used for
// cache sizing: threshold (4B) + axis/flags (2B) + parent, left, right
// links (3×2B for trees below 64k nodes, rounded up to 4B words) ≈ 16B.
const NodeBytes = 16

const nilIdx = int32(-1)

// Node is one tree node. Internal nodes carry a split (Axis, Threshold)
// and child links; leaf nodes carry a bucket link instead.
type Node struct {
	Axis      geom.Axis
	Threshold float32
	Parent    int32
	Left      int32 // nilIdx for leaves
	Right     int32 // nilIdx for leaves
	Bucket    int32 // nilIdx for internal nodes
}

// Leaf reports whether the node is a leaf.
func (n Node) Leaf() bool { return n.Bucket != nilIdx }

// Bucket is one leaf's view into the tree's SoA point arena: a contiguous
// {off, len, cap} span of the arena's coordinate planes and index plane.
// Keeping every bucket inside flat per-tree arrays (instead of per-bucket
// heap slices) is the software mirror of the paper's contiguous bucket
// blocks (§4): a bucket scan is one sequential walk of cache lines, a tree
// clone is a few bulk copies, and the steady-state query path allocates
// nothing. Use Tree.AppendBucketPoints / Tree.BucketIndices to read a
// bucket's contents.
type Bucket struct {
	off  int32 // first slot of the span in the arena
	n    int32 // live points in the span
	cap  int32 // reserved span length (n <= cap)
	Leaf int32 // owning leaf node
	live bool
}

// Len returns the number of points in the bucket.
func (b *Bucket) Len() int { return int(b.n) }

// Config controls tree construction.
type Config struct {
	// BucketSize is the target bucket occupancy B_N. Construction aims
	// for ~N/BucketSize leaves. The paper's operating points use 256–4096.
	BucketSize int
	// SampleSize is the number of points sampled to build the splits
	// (the paper's n < N). Zero selects max(4·leaves, N/8) automatically.
	SampleSize int
	// MaxDepth caps the tree depth; zero derives it from BucketSize.
	MaxDepth int
	// MinSamplePoints stops splitting when a sample group gets this
	// small ("a minimum occupancy of points"). Zero defaults to 4.
	MinSamplePoints int
	// Parallelism is the ingest worker budget for construction, point
	// placement, and rebalancing. Zero resolves to GOMAXPROCS at use
	// time; 1 = one worker (every phase runs inline on the caller). The
	// resulting tree is byte-identical for every setting
	// (docs/performance.md), so the knob trades only latency for cores.
	// Not persisted by Save: loaded trees default to 0 (auto).
	Parallelism int
}

// DefaultConfig returns the paper's main operating point: 256-point buckets
// (the smallest bucket size achieving ≥75% top-10 accuracy).
func DefaultConfig() Config { return Config{BucketSize: 256} }

func (c Config) withDefaults(n int) Config {
	if c.BucketSize <= 0 {
		c.BucketSize = 256
	}
	if c.MinSamplePoints <= 0 {
		c.MinSamplePoints = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = ceilLog2((n + c.BucketSize - 1) / c.BucketSize)
	}
	if c.SampleSize <= 0 {
		leaves := 1 << uint(c.MaxDepth)
		c.SampleSize = 4 * leaves
		if alt := n / 8; alt > c.SampleSize {
			c.SampleSize = alt
		}
		if c.SampleSize > n {
			c.SampleSize = n
		}
	}
	return c
}

func ceilLog2(v int) int {
	d := 0
	for (1 << uint(d)) < v {
		d++
	}
	return d
}

// Tree is a bucketed k-d tree.
type Tree struct {
	cfg         Config
	nodes       []Node
	buckets     []Bucket
	root        int32
	freeNodes   []int32
	freeBuckets []int32
	liveBuckets int

	// The SoA bucket arena: every bucket's points live in the per-axis
	// coordinate planes arenaX/Y/Z and its reference indices in arenaIdx,
	// addressed by Bucket{off, n, cap} spans. This is the only copy of a
	// placed point. The planes hold each float32 coordinate widened to
	// float64 (exact), so scanBucket's distance pass is three sequential
	// float64 loads per point with no conversions on its critical path,
	// and its arithmetic is geom.Point.DistSq's bit for bit. A geom.Point
	// is rebuilt (arenaPoint, exact) only where a point leaves the tree.
	// The architecture models and the serialized format account the
	// compact 16-byte float32 record.
	//
	// arenaHole counts retired span slots (from bucket growth relocations
	// and freed buckets); when holes dominate, maybeCompact repacks the
	// live spans front-to-back. Invariant (docs/invariants.md): the four
	// planes share one length and one capacity, and the sum of live
	// bucket caps + arenaHole == that length. Slots outside live spans
	// hold whatever was last written there; nothing reads them.
	arenaX    []float64
	arenaY    []float64
	arenaZ    []float64
	arenaIdx  []int32
	arenaHole int

	// lastIngest is the phase-timing breakdown of the most recent
	// mutation operation (LastIngest); reb is the rebalance pass's
	// reusable scratch (update.go). Neither is part of the tree's
	// logical state: Clone starts both at zero.
	lastIngest IngestTiming
	reb        rebScratch
}

// arenaPoint rebuilds the point in arena slot i. Narrowing is exact:
// every plane value was widened from a float32.
func (t *Tree) arenaPoint(i int32) geom.Point {
	return geom.Point{X: float32(t.arenaX[i]), Y: float32(t.arenaY[i]), Z: float32(t.arenaZ[i])}
}

// arenaSet stores point p with reference index ref into arena slot i.
func (t *Tree) arenaSet(i int32, p geom.Point, ref int32) {
	t.arenaX[i] = float64(p.X)
	t.arenaY[i] = float64(p.Y)
	t.arenaZ[i] = float64(p.Z)
	t.arenaIdx[i] = ref
}

// arenaMove copies the n slots starting at src to dst. The ranges may
// overlap (compaction slides spans toward the front); copy handles that.
func (t *Tree) arenaMove(dst, src, n int32) {
	copy(t.arenaX[dst:dst+n], t.arenaX[src:src+n])
	copy(t.arenaY[dst:dst+n], t.arenaY[src:src+n])
	copy(t.arenaZ[dst:dst+n], t.arenaZ[src:src+n])
	copy(t.arenaIdx[dst:dst+n], t.arenaIdx[src:src+n])
}

// AppendBucketPoints appends bucket id's points, in scan order, to dst
// and returns the extended slice. The points are copies: they stay valid
// across later mutations of the tree.
func (t *Tree) AppendBucketPoints(dst []geom.Point, id int32) []geom.Point {
	b := &t.buckets[id]
	for i := b.off; i < b.off+b.n; i++ {
		dst = append(dst, t.arenaPoint(i))
	}
	return dst
}

// BucketIndices returns bucket id's reference indices as a view into the
// tree arena. The view is read-only and valid until the next mutation
// (Insert, Place, Update*, Rebalance, CompactArena) — mutations may
// relocate spans.
func (t *Tree) BucketIndices(id int32) []int32 {
	b := &t.buckets[id]
	return t.arenaIdx[b.off : b.off+b.n : b.off+b.n]
}

// arenaReserve appends a span of n slots to the arena tail and returns
// its offset. The slots hold stale values until the caller writes them.
// Every allocation of the planes (here and in Clone) gives all four the
// same capacity, so checking one plane covers them all.
func (t *Tree) arenaReserve(n int32) int32 {
	off := int32(len(t.arenaIdx))
	need := int(off) + int(n)
	if need > cap(t.arenaIdx) {
		t.reallocArena(need, max(2*cap(t.arenaIdx), need, 1024))
		return off
	}
	t.arenaX = t.arenaX[:need]
	t.arenaY = t.arenaY[:need]
	t.arenaZ = t.arenaZ[:need]
	t.arenaIdx = t.arenaIdx[:need]
	return off
}

// reallocArena moves the arena into fresh planes of length n and
// capacity c (n >= the current length), keeping the current contents.
func (t *Tree) reallocArena(n, c int) {
	t.arenaX = append(make([]float64, 0, c), t.arenaX...)[:n]
	t.arenaY = append(make([]float64, 0, c), t.arenaY...)[:n]
	t.arenaZ = append(make([]float64, 0, c), t.arenaZ...)[:n]
	t.arenaIdx = append(make([]int32, 0, c), t.arenaIdx...)[:n]
}

// bucketAppend adds one point to bucket id, relocating the bucket's span
// to the arena tail with doubled capacity when it is full. Relocation is
// amortized: capacities persist across ResetBuckets, so steady-state
// re-population of same-shaped frames never grows.
func (t *Tree) bucketAppend(id int32, p geom.Point, ref int32) {
	b := &t.buckets[id]
	if b.n == b.cap {
		t.growBucket(id)
		b = &t.buckets[id]
	}
	t.arenaSet(b.off+b.n, p, ref)
	b.n++
}

// growBucket relocates bucket id's span to the arena tail with at least
// double the capacity, retiring the old span as a hole.
func (t *Tree) growBucket(id int32) {
	b := &t.buckets[id]
	newCap := max(b.cap*2, 8)
	off := t.arenaReserve(newCap)
	t.arenaMove(off, b.off, b.n)
	t.arenaHole += int(b.cap)
	b.off, b.cap = off, newCap
}

// minCompactSlack is the hole count below which compaction never runs —
// repacking a few hundred slots is not worth the copies.
const minCompactSlack = 1024

// maybeCompact repacks the arena when retired spans outnumber live ones.
// Called on retire paths only (after Rebalance, at the end of Place),
// never mid-scan, so search-held views are never invalidated by it.
func (t *Tree) maybeCompact() {
	if t.arenaHole < minCompactSlack || 2*t.arenaHole <= len(t.arenaIdx) {
		return
	}
	t.CompactArena()
}

// CompactArena repacks every live bucket span front-to-back in ascending
// offset order, dropping reserved slack (cap becomes n) and truncating the
// arena tail. Point order within each bucket is preserved, so search
// results are bit-identical across a compaction. Exposed for tests and
// tooling; the tree compacts itself on retire paths via maybeCompact.
func (t *Tree) CompactArena() {
	ids := make([]int32, 0, t.liveBuckets)
	for i := range t.buckets {
		if t.buckets[i].live {
			ids = append(ids, int32(i))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return t.buckets[ids[i]].off < t.buckets[ids[j]].off })
	var w int32
	for _, id := range ids {
		b := &t.buckets[id]
		if b.off != w {
			t.arenaMove(w, b.off, b.n)
		}
		b.off = w
		b.cap = b.n
		w += b.n
	}
	t.arenaX = t.arenaX[:w]
	t.arenaY = t.arenaY[:w]
	t.arenaZ = t.arenaZ[:w]
	t.arenaIdx = t.arenaIdx[:w]
	t.arenaHole = 0
}

// ArenaLen returns the arena length in slots (live spans + slack + holes);
// ArenaHoles returns the retired-slot count. Tests use them to pin the
// compaction invariants.
func (t *Tree) ArenaLen() int   { return len(t.arenaIdx) }
func (t *Tree) ArenaHoles() int { return t.arenaHole }

// Config returns the configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// NumNodes returns the number of live tree nodes.
func (t *Tree) NumNodes() int { return len(t.nodes) - len(t.freeNodes) }

// NumBuckets returns the number of live buckets (== leaves).
func (t *Tree) NumBuckets() int { return t.liveBuckets }

// NodeTableBytes returns the storage footprint of the node table, the
// quantity the architecture models size the on-chip tree cache by.
func (t *Tree) NodeTableBytes() int { return t.NumNodes() * NodeBytes }

// NumPoints returns the total number of points currently placed in buckets.
func (t *Tree) NumPoints() int {
	n := 0
	for i := range t.buckets {
		if t.buckets[i].live {
			n += int(t.buckets[i].n)
		}
	}
	return n
}

// Depth returns the maximum leaf depth (root = depth 0).
func (t *Tree) Depth() int {
	maxd := 0
	t.walkLeaves(func(leaf int32, depth int) {
		if depth > maxd {
			maxd = depth
		}
	})
	return maxd
}

// node allocates a node slot, reusing freed slots.
func (t *Tree) node() int32 {
	if n := len(t.freeNodes); n > 0 {
		idx := t.freeNodes[n-1]
		t.freeNodes = t.freeNodes[:n-1]
		t.nodes[idx] = Node{Parent: nilIdx, Left: nilIdx, Right: nilIdx, Bucket: nilIdx}
		return idx
	}
	t.nodes = append(t.nodes, Node{Parent: nilIdx, Left: nilIdx, Right: nilIdx, Bucket: nilIdx})
	return int32(len(t.nodes) - 1)
}

// bucket allocates a bucket slot, reusing freed slots.
func (t *Tree) bucket(leaf int32) int32 {
	t.liveBuckets++
	if n := len(t.freeBuckets); n > 0 {
		idx := t.freeBuckets[n-1]
		t.freeBuckets = t.freeBuckets[:n-1]
		t.buckets[idx] = Bucket{Leaf: leaf, live: true}
		return idx
	}
	t.buckets = append(t.buckets, Bucket{Leaf: leaf, live: true})
	return int32(len(t.buckets) - 1)
}

// leafItem is one frame of the explicit leaf-walk stack.
type leafItem struct {
	n     int32
	depth int
}

// walkLeaves visits every live leaf with its depth.
func (t *Tree) walkLeaves(fn func(leaf int32, depth int)) {
	t.walkLeavesStack(nil, fn)
}

// walkLeavesStack is walkLeaves over a caller-supplied stack buffer,
// returned (possibly grown) so mutation-path callers can reuse it
// across frames. Depth and other read paths may run on concurrent
// snapshots, so they pass nil and take a fresh stack.
func (t *Tree) walkLeavesStack(stack []leafItem, fn func(leaf int32, depth int)) []leafItem {
	if t.root == nilIdx {
		return stack
	}
	stack = append(stack[:0], leafItem{t.root, 0})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := t.nodes[it.n]
		if nd.Leaf() {
			fn(it.n, it.depth)
			continue
		}
		stack = append(stack, leafItem{nd.Left, it.depth + 1}, leafItem{nd.Right, it.depth + 1})
	}
	return stack
}

// Buckets calls fn for every live bucket.
func (t *Tree) Buckets(fn func(id int32, b *Bucket)) {
	for i := range t.buckets {
		if t.buckets[i].live {
			fn(int32(i), &t.buckets[i])
		}
	}
}

// BucketByID returns the bucket with the given id, or nil if the id is
// stale (freed by a rebalance).
func (t *Tree) BucketByID(id int32) *Bucket {
	if id < 0 || int(id) >= len(t.buckets) || !t.buckets[id].live {
		return nil
	}
	return &t.buckets[id]
}

// BucketStats summarizes the bucket-size distribution; Fig. 10 plots the
// Max and Min over successive frames.
type BucketStats struct {
	Min, Max int
	Mean     float64
	Count    int
}

// Stats returns the current bucket-size distribution.
func (t *Tree) Stats() BucketStats {
	s := BucketStats{Min: int(^uint(0) >> 1)}
	total := 0
	for i := range t.buckets {
		if !t.buckets[i].live {
			continue
		}
		n := int(t.buckets[i].n)
		if n < s.Min {
			s.Min = n
		}
		if n > s.Max {
			s.Max = n
		}
		total += n
		s.Count++
	}
	if s.Count == 0 {
		s.Min = 0
		return s
	}
	s.Mean = float64(total) / float64(s.Count)
	return s
}

// Clone returns a deep copy of the tree: mutations of one (placement,
// rebalance) never affect the other. Multi-frame simulations clone the
// previous tree to model static reuse and incremental update. With the
// SoA arena a clone is a handful of bulk array copies instead of one heap
// allocation per bucket, which is what lets the serving engine snapshot
// per frame cheaply.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		cfg:         t.cfg,
		root:        t.root,
		liveBuckets: t.liveBuckets,
		nodes:       append([]Node(nil), t.nodes...),
		freeNodes:   append([]int32(nil), t.freeNodes...),
		freeBuckets: append([]int32(nil), t.freeBuckets...),
		buckets:     append([]Bucket(nil), t.buckets...),
		arenaHole:   t.arenaHole,
	}
	// Start from t's planes and copy them out into exact-size arrays.
	c.arenaX, c.arenaY, c.arenaZ, c.arenaIdx = t.arenaX, t.arenaY, t.arenaZ, t.arenaIdx
	n := len(t.arenaIdx)
	c.reallocArena(n, n)
	return c
}

// Validate checks structural invariants: link symmetry, every leaf has a
// live bucket, every internal node has two children, bucket back-links
// match. It returns an error describing the first violation. Tests and the
// incremental updater call it after mutations.
func (t *Tree) Validate() error {
	if t.root == nilIdx {
		return fmt.Errorf("kdtree: no root")
	}
	free := map[int32]bool{}
	for _, f := range t.freeNodes {
		free[f] = true
	}
	seenBuckets := map[int32]bool{}
	var walk func(idx, parent int32) error
	var visit int
	walk = func(idx, parent int32) error {
		if idx < 0 || int(idx) >= len(t.nodes) {
			return fmt.Errorf("kdtree: node link %d out of range", idx)
		}
		if free[idx] {
			return fmt.Errorf("kdtree: node %d is on the free list but reachable", idx)
		}
		visit++
		if visit > len(t.nodes) {
			return fmt.Errorf("kdtree: cycle detected")
		}
		nd := t.nodes[idx]
		if nd.Parent != parent {
			return fmt.Errorf("kdtree: node %d parent link = %d, want %d", idx, nd.Parent, parent)
		}
		if nd.Leaf() {
			if nd.Left != nilIdx || nd.Right != nilIdx {
				return fmt.Errorf("kdtree: leaf %d has children", idx)
			}
			b := t.BucketByID(nd.Bucket)
			if b == nil {
				return fmt.Errorf("kdtree: leaf %d bucket %d not live", idx, nd.Bucket)
			}
			if b.Leaf != idx {
				return fmt.Errorf("kdtree: bucket %d back-link = %d, want %d", nd.Bucket, b.Leaf, idx)
			}
			if seenBuckets[nd.Bucket] {
				return fmt.Errorf("kdtree: bucket %d shared by two leaves", nd.Bucket)
			}
			seenBuckets[nd.Bucket] = true
			return nil
		}
		if nd.Left == nilIdx || nd.Right == nilIdx {
			return fmt.Errorf("kdtree: internal node %d missing a child", idx)
		}
		if err := walk(nd.Left, idx); err != nil {
			return err
		}
		return walk(nd.Right, idx)
	}
	if err := walk(t.root, nilIdx); err != nil {
		return err
	}
	if len(seenBuckets) != t.liveBuckets {
		return fmt.Errorf("kdtree: reachable buckets %d != live buckets %d", len(seenBuckets), t.liveBuckets)
	}
	return t.validateArena()
}

// validateArena checks the SoA arena invariants (docs/invariants.md):
// the four planes of one length, every live span in range with n <= cap,
// live spans pairwise disjoint, and live capacity + holes covering the
// arena exactly — the arena holds exactly the live points plus accounted
// slack.
func (t *Tree) validateArena() error {
	n := len(t.arenaIdx)
	if len(t.arenaX) != n || len(t.arenaY) != n || len(t.arenaZ) != n {
		return fmt.Errorf("kdtree: arena planes diverge: x %d / y %d / z %d vs %d indices",
			len(t.arenaX), len(t.arenaY), len(t.arenaZ), n)
	}
	type span struct {
		id       int32
		off, end int32
	}
	var spans []span
	liveCap := 0
	for i := range t.buckets {
		b := &t.buckets[i]
		if !b.live {
			continue
		}
		if b.n < 0 || b.cap < b.n || b.off < 0 || int(b.off)+int(b.cap) > n {
			return fmt.Errorf("kdtree: bucket %d span {off %d, n %d, cap %d} out of arena [0,%d)",
				i, b.off, b.n, b.cap, n)
		}
		liveCap += int(b.cap)
		if b.cap > 0 {
			spans = append(spans, span{int32(i), b.off, b.off + b.cap})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i := 1; i < len(spans); i++ {
		if spans[i].off < spans[i-1].end {
			return fmt.Errorf("kdtree: bucket %d span [%d,%d) overlaps bucket %d span ending at %d",
				spans[i].id, spans[i].off, spans[i].end, spans[i-1].id, spans[i-1].end)
		}
	}
	if liveCap+t.arenaHole != n {
		return fmt.Errorf("kdtree: arena accounting broken: live cap %d + holes %d != arena %d",
			liveCap, t.arenaHole, n)
	}
	return nil
}
