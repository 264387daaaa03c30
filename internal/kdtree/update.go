package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/obs"
)

// UpdateResult reports what one Rebalance pass did.
type UpdateResult struct {
	// Merged is the number of delinquent (under-occupied) leaves absorbed
	// into a parent-subtree rebuild.
	Merged int
	// Split is the number of oversized leaves replaced by new subtrees.
	Split int
	// NodesRebuilt is the number of tree nodes created by the pass.
	NodesRebuilt int
	// PointsResorted is the number of points that took part in a local
	// sort/partition — the quantity that makes incremental update cheap
	// relative to a from-scratch rebuild (§4.4: "far fewer points than N").
	PointsResorted int
}

// leafAt is a leaf node paired with its depth, the unit the rebalance
// pass collects and orders.
type leafAt struct {
	node  int32
	depth int
}

// rebScratch is the rebalance pass's reusable workspace, owned by the
// tree (mutations are single-caller by contract): the freed-node set,
// the leaf-walk stack, the collected delinquent/oversized lists, the
// pass's task and pending-decision lists, and the flat buffers every
// task of a step collects into. Reuse is what keeps steady-state
// UpdateFrame allocation-free.
type rebScratch struct {
	freed      freedSet
	stack      []leafItem
	delinquent []leafAt
	oversized  []int32
	tasks      []rebTask
	pend       []rebPending

	// Per-step collection buffers: each task owns the ranges it
	// appended. pts/idxs hold point copies, so they are dropped at the
	// end of a pass; a settled tree keeps none.
	pts          []geom.Point
	idxs         []int32
	freedNodes   []int32
	freedBuckets []int32
}

// rebTask is one planned subtree rebuild of the phased rebalance: the
// kept root, the range of the step's buffers holding the points
// collected out of its subtree, the ranges holding the node/bucket
// slots the collection freed (pushed onto the tree's free lists only at
// commit, so the free-list LIFO replays in exactly the
// one-rebuild-at-a-time interleaving), and the staged shape.
type rebTask struct {
	target int32
	axis   geom.Axis

	lo, hi   int32 // points: reb.pts/reb.idxs[lo:hi]
	fn0, fn1 int32 // freed nodes: reb.freedNodes[fn0:fn1]
	fb0, fb1 int32 // freed buckets: reb.freedBuckets[fb0:fb1]

	nodes []stagedNode
	root  int32
}

// rebPending is one delinquent-list decision of a merge round: either a
// planned task (task >= 0) or a predicted skip on a freed slot
// (task == -1) that must be re-checked at commit time — an earlier
// commit may have resurrected the slot as a new delinquent leaf, which
// a one-rebuild-at-a-time pass would rebuild at exactly this list
// position.
type rebPending struct {
	node int32
	task int32
}

// UpdateFrame re-populates the tree with a new frame in incremental-update
// mode (§4.4): buckets are cleared, the new points are placed using the
// existing splits, and the tree is rebalanced so every bucket stays within
// [lower, upper]. The returned UpdateResult describes the rebalancing work.
//
// Passing lower <= 0 and upper <= 0 derives the paper's bounds of half and
// twice the configured bucket size B_N. (Anchoring on B_N rather than the
// current mean keeps the operating point stable: bounds tied to the mean
// ratchet — every merge raises the mean, which widens the bounds, which
// triggers more merges on the next frame.)
func (t *Tree) UpdateFrame(points []geom.Point, lower, upper int) UpdateResult {
	t.lastIngest = IngestTiming{}
	t.ResetBuckets()
	t.placeInto(points)
	if lower <= 0 {
		lower = t.cfg.BucketSize / 2
	}
	if upper <= 0 {
		upper = t.cfg.BucketSize * 2
	}
	return t.rebalance(lower, upper)
}

// Rebalance applies the paper's two incremental-update steps in order:
// merging (absorb under-occupied leaves into a parent-subtree rebuild,
// shallowest leaves first) and splitting (rebuild oversized leaves into
// subtrees). Bounds must satisfy 0 < lower < upper.
//
// The independent subtree rebuilds of each step run phased (plan →
// stage on the ingest workers → commit in plan order); node and bucket
// numbering, free lists, and the arena come out byte-identical for any
// worker count.
func (t *Tree) Rebalance(lower, upper int) UpdateResult {
	t.lastIngest = IngestTiming{}
	return t.rebalance(lower, upper)
}

// collectDelinquent gathers the under-occupied leaves (depth > 0)
// shallowest-first into the pass's reusable scratch, as the paper
// specifies ("starting with the leaf nodes of the least depth").
func (t *Tree) collectDelinquent(lower int) []leafAt {
	t.reb.delinquent = t.reb.delinquent[:0]
	t.reb.stack = t.walkLeavesStack(t.reb.stack, func(leaf int32, depth int) {
		if t.buckets[t.nodes[leaf].Bucket].Len() < lower && depth > 0 {
			t.reb.delinquent = append(t.reb.delinquent, leafAt{leaf, depth})
		}
	})
	del := t.reb.delinquent
	for i := 1; i < len(del); i++ {
		for j := i; j > 0 && del[j].depth < del[j-1].depth; j-- {
			del[j], del[j-1] = del[j-1], del[j]
		}
	}
	return del
}

// collectOversized gathers the leaves holding more than upper points.
func (t *Tree) collectOversized(upper int) []int32 {
	t.reb.oversized = t.reb.oversized[:0]
	t.reb.stack = t.walkLeavesStack(t.reb.stack, func(leaf int32, _ int) {
		if t.buckets[t.nodes[leaf].Bucket].Len() > upper {
			t.reb.oversized = append(t.reb.oversized, leaf)
		}
	})
	return t.reb.oversized
}

// rebalance runs the pass and records its timing.
//
// Merging collects delinquent leaves shallowest-first; rebuilding a
// parent subtree may consume other delinquent leaves, so each is
// re-validated before it is admitted. One round collapses a delinquent
// region by one level, so rounds iterate to a fixpoint: each round a
// still-delinquent leaf's merge target is strictly shallower, so the
// loop terminates within the tree depth. Splitting then replaces
// oversized leaves (including any produced by merging that the rebuild
// target could not subdivide) with subtrees.
//
// Each step is phased: plan the admitted rebuilds in list order
// (running every collection in list order, with free-list pushes
// deferred into the task), stage each task's subtree shape on the
// workers (chooseSplit over the task's own range of the step's point
// buffers — no shared state), then commit in plan order — each commit first replays its
// task's frees and then allocates through t.node()/t.bucket(), which
// reproduces the one-rebuild-at-a-time free-list interleaving and
// therefore its exact node/bucket numbering.
//
// Admission decisions made at plan time against pre-commit state equal
// the one-at-a-time decisions for every non-freed leaf (commits only
// mutate slots a prior collection freed); the one divergence — a slot
// freed at plan time that an earlier commit resurrects into a new
// delinquent leaf — is re-checked at its original list position during
// commit and rebuilt there as one more task, collected, staged and
// committed inline (its subtree lies inside the resurrecting task's
// committed region, disjoint from every remaining staged task).
func (t *Tree) rebalance(lower, upper int) UpdateResult {
	if lower <= 0 || upper <= lower {
		panic("kdtree: Rebalance requires 0 < lower < upper")
	}
	sw := obs.StartStopwatch()
	workers := t.ingestWorkers()
	var res UpdateResult
	freed := &t.reb.freed
	freed.reset(len(t.nodes))
	tasks := t.reb.tasks[:0]
	pend := t.reb.pend[:0]
	for round := 0; ; round++ {
		del := t.collectDelinquent(lower)
		if len(del) == 0 || round > 64 {
			break
		}
		merged := 0
		tasks = tasks[:0]
		pend = pend[:0]
		t.reb.resetStep()
		for _, d := range del {
			if freed.has(d.node) {
				pend = append(pend, rebPending{node: d.node, task: -1})
				continue
			}
			nd := t.nodes[d.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue // already fixed by an earlier rebuild
			}
			merged++
			pend = append(pend, rebPending{node: d.node, task: int32(len(tasks))})
			tasks = t.appendCollectTask(tasks, nd.Parent, freed, &res)
		}
		t.stageRebTasks(tasks, upper, workers)
		for _, p := range pend {
			if p.task >= 0 {
				t.commitRebuild(&tasks[p.task], freed, &res)
				continue
			}
			if freed.has(p.node) {
				continue
			}
			nd := t.nodes[p.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue
			}
			// Resurrected delinquent leaf: rebuild its parent here, at
			// its list position.
			merged++
			tasks = t.appendCollectTask(tasks, nd.Parent, freed, &res)
			tk := &tasks[len(tasks)-1]
			t.stageRebTask(tk, upper)
			t.commitRebuild(tk, freed, &res)
		}
		res.Merged += merged
		if merged == 0 {
			break
		}
	}
	// Splitting has no admission guards, so it is a straight
	// plan/stage/commit fan-out over the oversized leaves.
	tasks = tasks[:0]
	t.reb.resetStep()
	for _, leaf := range t.collectOversized(upper) {
		res.Split++
		tasks = t.appendCollectTask(tasks, leaf, freed, &res)
	}
	t.stageRebTasks(tasks, upper, workers)
	for i := range tasks {
		t.commitRebuild(&tasks[i], freed, &res)
	}
	t.reb.tasks = tasks[:0]
	t.reb.pend = pend[:0]
	// Drop the point copies of the largest step; the task headers with
	// their staged-node buffers and the freed-slot lists stay for reuse.
	t.reb.pts, t.reb.idxs = nil, nil
	// Rebuilds retire the merged/split leaves' old arena spans; repack the
	// arena once the retired slots dominate ("compaction on retire").
	t.maybeCompact()
	t.lastIngest.RebalanceSeconds = sw.Seconds()
	t.lastIngest.Workers = workers
	return res
}

// resetStep empties the collection buffers for the next step; the
// previous step's tasks are all committed by then.
func (r *rebScratch) resetStep() {
	r.pts, r.idxs = r.pts[:0], r.idxs[:0]
	r.freedNodes, r.freedBuckets = r.freedNodes[:0], r.freedBuckets[:0]
}

// appendCollectTask plans one subtree rebuild: it collects the subtree
// below idx (points copied out, holes accounted, slots marked freed) but
// defers the free-list pushes into the task for replay at commit time.
// A task header left over from an earlier step is reused with its
// staged-node buffer.
func (t *Tree) appendCollectTask(tasks []rebTask, idx int32, freed *freedSet, res *UpdateResult) []rebTask {
	if len(tasks) < cap(tasks) {
		tasks = tasks[:len(tasks)+1]
	} else {
		tasks = append(tasks, rebTask{})
	}
	tk := &tasks[len(tasks)-1]
	r := &t.reb
	*tk = rebTask{
		target: idx,
		lo:     int32(len(r.pts)),
		fn0:    int32(len(r.freedNodes)),
		fb0:    int32(len(r.freedBuckets)),
		nodes:  tk.nodes[:0],
	}
	t.collectDeferred(idx, freed, true)
	tk.hi, tk.fn1, tk.fb1 = int32(len(r.pts)), int32(len(r.freedNodes)), int32(len(r.freedBuckets))
	res.PointsResorted += int(tk.hi - tk.lo)
	tk.axis = geom.Axis(t.depthOf(idx) % geom.Dims)
	return tasks
}

// collectDeferred gathers every point below idx, in DFS order, into the
// step's buffers (rebuilt as geom.Points: they leave the arena here, so
// later span retirement cannot clobber them), frees the subtree's
// buckets and child nodes, and clears the kept root's links. The
// free-list pushes are recorded in the step's freed-slot lists instead
// of applied; every other side effect — hole accounting, bucket
// clearing, freed marks — happens eagerly.
func (t *Tree) collectDeferred(idx int32, freed *freedSet, keepRoot bool) {
	r := &t.reb
	nd := t.nodes[idx]
	if nd.Leaf() {
		r.pts = t.AppendBucketPoints(r.pts, nd.Bucket)
		r.idxs = append(r.idxs, t.BucketIndices(nd.Bucket)...)
		t.arenaHole += int(t.buckets[nd.Bucket].cap)
		t.buckets[nd.Bucket] = Bucket{}
		t.liveBuckets--
		r.freedBuckets = append(r.freedBuckets, nd.Bucket)
	} else {
		t.collectDeferred(nd.Left, freed, false)
		t.collectDeferred(nd.Right, freed, false)
	}
	if keepRoot {
		t.nodes[idx].Left = nilIdx
		t.nodes[idx].Right = nilIdx
		t.nodes[idx].Bucket = nilIdx
		return
	}
	freed.mark(idx)
	r.freedNodes = append(r.freedNodes, idx)
}

// stageRebTasks computes each task's subtree shape on up to `workers`
// goroutines. Staging reads and sorts only the task's own ranges of the
// step's buffers. One
// worker runs without the closure, so a warm pass allocates nothing.
func (t *Tree) stageRebTasks(tasks []rebTask, target, workers int) {
	if workers <= 1 {
		for i := range tasks {
			t.stageRebTask(&tasks[i], target)
		}
		return
	}
	runTasks(workers, len(tasks), func(i int) { t.stageRebTask(&tasks[i], target) })
}

// stageRebTask computes one task's subtree shape.
func (t *Tree) stageRebTask(tk *rebTask, target int) {
	tk.nodes = tk.nodes[:0]
	tk.root = stageRebuild(&tk.nodes, t.reb.pts, t.reb.idxs, tk.lo, tk.hi, tk.axis, target)
}

// stageRebuild builds a subtree shape over the task's points into a
// staged node array, splitting groups larger than target at the median
// along cycling axes (the same sorter/partition datapath TBuild already
// has, per §4.4). Each staged leaf records its [lo,hi) range — the
// in-place median partition leaves every subtree's points contiguous,
// so ranges are all a leaf needs.
func stageRebuild(nodes *[]stagedNode, pts []geom.Point, idxs []int32, lo, hi int32, axis geom.Axis, target int) int32 {
	si := int32(len(*nodes))
	*nodes = append(*nodes, stagedNode{})
	if int(hi-lo) <= target {
		(*nodes)[si] = stagedNode{leaf: true, lo: lo, hi: hi}
		return si
	}
	splitAxis, threshold, loSet, _, ok := chooseSplit(pointSet{pts: pts[lo:hi], idxs: idxs[lo:hi]}, axis)
	if !ok {
		(*nodes)[si] = stagedNode{leaf: true, lo: lo, hi: hi} // degenerate: all points identical
		return si
	}
	mid := lo + int32(len(loSet.pts))
	l := stageRebuild(nodes, pts, idxs, lo, mid, splitAxis.Next(), target)
	r := stageRebuild(nodes, pts, idxs, mid, hi, splitAxis.Next(), target)
	(*nodes)[si] = stagedNode{axis: splitAxis, threshold: threshold, left: l, right: r}
	return si
}

// commitRebuild applies one staged task: replay the collection's frees
// in order, then emit the staged subtree through the allocators — the
// [frees][allocations] bracket of one rebuild done on its own.
func (t *Tree) commitRebuild(tk *rebTask, freed *freedSet, res *UpdateResult) {
	t.freeNodes = append(t.freeNodes, t.reb.freedNodes[tk.fn0:tk.fn1]...)
	t.freeBuckets = append(t.freeBuckets, t.reb.freedBuckets[tk.fb0:tk.fb1]...)
	t.commitStaged(tk, tk.root, tk.target, freed, res)
}

// commitStaged emits staged node si into tree node idx (bucket at each
// leaf; left node, right node, then left subtree, right subtree at each
// internal node).
func (t *Tree) commitStaged(tk *rebTask, si, idx int32, freed *freedSet, res *UpdateResult) {
	sn := tk.nodes[si]
	if sn.leaf {
		b := t.bucket(idx)
		t.nodes[idx].Bucket = b
		n := sn.hi - sn.lo
		off := t.arenaReserve(n)
		for i := int32(0); i < n; i++ {
			t.arenaSet(off+i, t.reb.pts[sn.lo+i], t.reb.idxs[sn.lo+i])
		}
		bk := &t.buckets[b]
		bk.off, bk.n, bk.cap = off, n, n
		return
	}
	left := t.node()
	right := t.node()
	freed.unmark(left) // slots may be recycled from this very pass
	freed.unmark(right)
	res.NodesRebuilt += 2
	t.nodes[idx].Axis = sn.axis
	t.nodes[idx].Threshold = sn.threshold
	t.nodes[idx].Left = left
	t.nodes[idx].Right = right
	t.nodes[left].Parent = idx
	t.nodes[right].Parent = idx
	t.commitStaged(tk, sn.left, left, freed, res)
	t.commitStaged(tk, sn.right, right, freed, res)
}

// depthOf returns the depth of node idx by following parent links.
func (t *Tree) depthOf(idx int32) int {
	d := 0
	for t.nodes[idx].Parent != nilIdx {
		idx = t.nodes[idx].Parent
		d++
	}
	return d
}
