package quicknn

import (
	"math/rand"

	"github.com/quicknn/quicknn/internal/arch"
	"github.com/quicknn/quicknn/internal/arch/fu"
	"github.com/quicknn/quicknn/internal/arch/gather"
	"github.com/quicknn/quicknn/internal/arch/mergesort"
	"github.com/quicknn/quicknn/internal/arch/traversal"
	"github.com/quicknn/quicknn/internal/dram"
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/kdtree"
	"github.com/quicknn/quicknn/internal/nn"
	"github.com/quicknn/quicknn/internal/obs/obsdram"
)

// Report is the outcome of simulating one steady-state round (Fig. 7):
// TBuild inserting the current frame while TSearch searches it against the
// previous frame's tree, sharing the external memory.
type Report struct {
	// Cycles is the round's total core cycles (the per-frame latency).
	Cycles int64
	// FPS is the frame rate at the prototype clock.
	//
	//quicknnlint:reporting frame rate is report output, not cycle state
	FPS float64
	// TBuildCycles / TSearchCycles are the halves' individual finish times.
	TBuildCycles, TSearchCycles int64
	// SortCycles is the merge-sort accelerator occupancy in construction.
	SortCycles int64
	// BuildTraversalCycles / SearchTraversalCycles count the banked
	// traversal time in each half.
	BuildTraversalCycles, SearchTraversalCycles int64
	// FUCycles counts the FU broadcast pipeline occupancy.
	FUCycles int64
	// RebalanceCycles is the incremental-update work (ModeIncremental).
	RebalanceCycles int64
	// Mem is the DRAM counter snapshot (shared by both halves).
	Mem dram.Stats
	// WriteGather / ReadGather are the gather caches' statistics.
	WriteGather, ReadGather gather.Stats
	// TreeNodes/TreeDepth/BlocksUsed describe the built tree.
	TreeNodes, TreeDepth, BlocksUsed int
	// BucketStats is the built tree's occupancy distribution.
	BucketStats kdtree.BucketStats
	// Results holds per-query neighbors when Config.ComputeResults is on.
	Results [][]nn.Neighbor
	// Tree is the tree TBuild produced this round (input to the next).
	Tree *kdtree.Tree
	// Timeline records when each engine phase ran (Fig. 7's round
	// pipeline), in core cycles.
	Timeline []PhaseSpan
}

// PhaseSpan is one engine phase's occupancy on the round timeline.
type PhaseSpan struct {
	Engine string // "TBuild" or "TSearch"
	Phase  string // "sample", "construct", "place", "drain", "wait", "search"
	Start  int64
	End    int64
}

// span appends a phase to the report's timeline (zero-length spans are
// dropped).
func (r *Report) span(engine, phase string, start, end int64) {
	if end <= start {
		return
	}
	r.Timeline = append(r.Timeline, PhaseSpan{Engine: engine, Phase: phase, Start: start, End: end})
}

// SimulateFrame runs one steady-state round: `current` is both the frame
// TBuild inserts and the query frame TSearch matches against prevTree
// (built from the previous frame). mem supplies external-memory timing;
// use dram.New(arch.PrototypeMemConfig()).
//
// prevTree must be a tree over the previous frame, e.g. from a prior
// SimulateFrame round or kdtree.Build. seed drives construction sampling.
func SimulateFrame(prevTree *kdtree.Tree, current []geom.Point, cfg Config, mem *dram.Memory, seed int64) Report {
	// The prototype sizes its gather caches to the leaf count (128 slots
	// for the 128 buckets of a 30k-point frame). When the caller leaves
	// the geometry unset, follow the workload the same way — §7.2's
	// scaling prescription — so larger frames don't thrash the caches.
	bucketSize := cfg.BucketSize
	if bucketSize <= 0 {
		bucketSize = 256
	}
	leaves := nextPow2((len(current) + bucketSize - 1) / bucketSize)
	if cfg.ReadGatherSlots <= 0 && leaves > 128 {
		cfg.ReadGatherSlots = leaves
	}
	if cfg.WriteGatherSlots <= 0 && leaves > 128 {
		cfg.WriteGatherSlots = leaves
	}
	cfg = cfg.withDefaults()
	rep := &Report{}
	maxPoints := len(current)
	if n := prevTree.NumPoints(); n > maxPoints {
		maxPoints = n
	}
	amap := arch.DefaultAddressMap(maxPoints, cfg.BlockPoints)
	port := arch.NewMemPort(mem)
	col := obsdram.Attach(mem, cfg.Obs) // nil sink → nil, inert collector

	// Reconstruct the previous round's bucket-block layout so Rd3 reads
	// are addressed exactly as TBuild wrote them.
	prevAlloc := newBlockAlloc(amap, cfg.BlockPoints)
	prevTree.Buckets(func(id int32, b *kdtree.Bucket) {
		prevAlloc.write(id, b.Len())
	})

	tb := newTBuild(cfg, port, amap, prevTree, current, rep, seed)
	ts := newTSearch(cfg, port, amap, prevTree, prevAlloc, current, tb, rep)

	rep.Cycles = arch.Run(tb, ts)
	rep.FPS = arch.FPS(rep.Cycles)
	rep.TBuildCycles = tb.t
	rep.TSearchCycles = ts.t
	rep.Mem = mem.Stats()
	if tb.wg != nil {
		rep.WriteGather = tb.wg.Stats()
	}
	if ts.rg != nil {
		rep.ReadGather = ts.rg.Stats()
	}
	rep.Tree = tb.tree
	rep.TreeNodes = tb.tree.NumNodes()
	rep.TreeDepth = tb.tree.Depth()
	rep.BlocksUsed = tb.alloc.blocksUsed()
	rep.BucketStats = tb.tree.Stats()
	col.Finish()
	publishReport(cfg.Obs, rep)
	return *rep
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

// ---------------------------------------------------------------- TBuild

type tbuild struct {
	cfg   Config
	port  *arch.MemPort
	amap  arch.AddressMap
	tree  *kdtree.Tree
	pts   []geom.Point
	alloc *blockAlloc
	wg    *gather.Cache
	rep   *Report
	rng   *rand.Rand

	t          int64
	phase      int // 0 sample, 1 construct, 2 place, 3 drain, 4 done
	next       int // next point to place
	readUpTo   int // points fetched on Rd1 so far (snooped by TSearch)
	placeStart int64
}

func newTBuild(cfg Config, port *arch.MemPort, amap arch.AddressMap, prevTree *kdtree.Tree, pts []geom.Point, rep *Report, seed int64) *tbuild {
	b := &tbuild{
		cfg:   cfg,
		port:  port,
		amap:  amap,
		pts:   pts,
		alloc: newBlockAlloc(amap, cfg.BlockPoints),
		rep:   rep,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if !cfg.DisableWriteGather {
		b.wg = gather.New(cfg.WriteGatherSlots, cfg.WriteGatherDepth)
	}
	switch cfg.Mode {
	case ModeStatic, ModeIncremental:
		// Reuse the previous structure; skip sampling and construction.
		b.tree = prevTree.Clone()
		b.tree.ResetBuckets()
		b.phase = 2
	default:
		b.tree = nil // built in phases 0–1
	}
	return b
}

func (b *tbuild) Name() string { return "TBuild" }
func (b *tbuild) Time() int64  { return b.t }
func (b *tbuild) Done() bool   { return b.phase >= 4 }

func (b *tbuild) Step() {
	switch b.phase {
	case 0:
		b.samplePhase()
	case 1:
		b.constructPhase()
	case 2:
		b.placeChunk()
	case 3:
		b.drain()
	}
}

// samplePhase fetches the construction sample into the scratchpad:
// strided 12-byte reads across the frame (semi-random traffic).
func (b *tbuild) samplePhase() {
	t0 := b.t
	cfg := kdtree.Config{BucketSize: b.cfg.BucketSize}
	b.tree = kdtree.BuildStructure(b.pts, cfg, b.rng)
	n := b.tree.Config().SampleSize
	if n > len(b.pts) {
		n = len(b.pts)
	}
	stride := 1
	if n > 0 {
		stride = len(b.pts) / n
		if stride < 1 {
			stride = 1
		}
	}
	done := b.t
	for i := 0; i < n; i++ {
		addr := b.amap.PointAddr(0, (i*stride)%len(b.pts))
		done = b.port.Access(b.t, addr, geom.PointBytes, false, dram.StreamOther)
	}
	b.t = done
	b.rep.span("TBuild", "sample", t0, b.t)
	b.phase = 1
}

// constructPhase accounts the sorter time for split construction: the
// sample is fully sorted once per tree level (median split at each node),
// each level a batch of n-way merge sorts.
func (b *tbuild) constructPhase() {
	n := b.tree.Config().SampleSize
	depth := b.tree.Depth()
	var cycles int64
	for level := 0; level < depth; level++ {
		groups := 1 << uint(level)
		groupLen := n / groups
		if groupLen < 2 {
			break
		}
		cycles += int64(groups) * mergesort.Cycles(groupLen, b.cfg.SortWays)
	}
	b.rep.SortCycles += cycles
	t0 := b.t
	b.t += cycles
	b.rep.span("TBuild", "construct", t0, b.t)
	b.phase = 2
}

// placeChunk streams one chunk of the frame (Rd1), traverses each point
// to its bucket, and pushes it through the write-gather cache.
func (b *tbuild) placeChunk() {
	if b.next == 0 {
		b.placeStart = b.t
	}
	lo := b.next
	hi := lo + b.cfg.ChunkPoints
	if hi > len(b.pts) {
		hi = len(b.pts)
	}
	memDone := b.port.Access(b.t, b.amap.PointAddr(0, lo), (hi-lo)*geom.PointBytes, false, dram.StreamRd1)
	var paths []traversal.Path
	var flushes []gather.Flush
	for i := lo; i < hi; i++ {
		bucket, bits, depth := b.tree.FindLeafBits(b.pts[i])
		b.tree.Insert(b.pts[i], i)
		paths = append(paths, traversal.Path{Bits: bits, Depth: depth})
		if b.wg != nil {
			flushes = append(flushes, b.wg.Insert(bucket, int32(i))...)
		} else {
			flushes = append(flushes, gather.Flush{Bucket: bucket, Items: []int32{int32(i)}})
		}
	}
	compute := b.traversalCycles(paths, &memDone)
	b.rep.BuildTraversalCycles += compute
	t := b.t + compute
	if memDone > t {
		t = memDone
	}
	b.t = t
	b.flushWrites(flushes)
	b.next = hi
	b.readUpTo = hi
	if b.next >= len(b.pts) {
		b.rep.span("TBuild", "place", b.placeStart, b.t)
		b.phase = 3
	}
}

// traversalCycles times the banked-cache descent of a chunk of paths, or,
// in the tree-in-DRAM ablation, issues one random node read per level.
func (b *tbuild) traversalCycles(paths []traversal.Path, memDone *int64) int64 {
	if b.cfg.TreeInDRAM {
		done := *memDone
		for _, p := range paths {
			for l := 1; l <= p.Depth; l++ {
				id := (uint64(1) << uint(l)) | (p.Bits >> uint(p.Depth-l))
				done = b.port.Access(done, b.amap.NodeAddr(id), 16, false, dram.StreamOther)
			}
		}
		*memDone = done
		return 0
	}
	r := traversal.Simulate(paths, traversal.Config{
		Workers: b.cfg.Workers, Banks: b.cfg.Banks, DupLevels: -1, Scheme: b.cfg.Scheme,
	})
	return r.Cycles
}

// flushWrites turns gather flushes into bucket-block writes (Wr1).
func (b *tbuild) flushWrites(flushes []gather.Flush) {
	for _, f := range flushes {
		for _, w := range b.alloc.write(f.Bucket, len(f.Items)) {
			b.t = b.port.Access(b.t, w.addr, w.bytes, true, dram.StreamWr1)
		}
	}
}

// drain empties the write-gather cache and, in incremental mode, accounts
// the rebalancing pass.
func (b *tbuild) drain() {
	t0 := b.t
	if b.wg != nil {
		b.flushWrites(b.wg.Drain())
	}
	if b.cfg.Mode == ModeIncremental {
		res := b.tree.Rebalance(b.cfg.BucketSize/2, b.cfg.BucketSize*2)
		// Local sorts reuse the merge-sort accelerator; the points being
		// resorted stream from the buckets already on chip via the
		// gather path, so the dominant cost is the sorter occupancy.
		cycles := mergesort.Cycles(res.PointsResorted+1, b.cfg.SortWays)
		b.rep.RebalanceCycles += cycles
		b.t += cycles
	}
	b.rep.span("TBuild", "drain", t0, b.t)
	b.phase = 4
}

// --------------------------------------------------------------- TSearch

type tsearch struct {
	cfg     Config
	port    *arch.MemPort
	amap    arch.AddressMap
	tree    *kdtree.Tree // previous frame's tree
	alloc   *blockAlloc  // previous frame's block layout
	queries []geom.Point
	rg      *gather.Cache
	bank    *fu.Bank
	tb      *tbuild
	rep     *Report

	bucketPts []geom.Point // the flushed bucket's points, reused per flush

	t           int64
	next        int
	done        bool
	firstActive int64
}

func newTSearch(cfg Config, port *arch.MemPort, amap arch.AddressMap, prevTree *kdtree.Tree, prevAlloc *blockAlloc, queries []geom.Point, tb *tbuild, rep *Report) *tsearch {
	s := &tsearch{
		cfg:     cfg,
		port:    port,
		amap:    amap,
		tree:    prevTree,
		alloc:   prevAlloc,
		queries: queries,
		tb:      tb,
		rep:     rep,

		firstActive: -1,
	}
	if !cfg.DisableReadGather {
		s.rg = gather.New(cfg.ReadGatherSlots, cfg.ReadGatherDepth)
	}
	if cfg.ComputeResults {
		s.bank = fu.NewBank(cfg.FUs, cfg.K)
		rep.Results = make([][]nn.Neighbor, len(queries))
	}
	return s
}

func (s *tsearch) Name() string { return "TSearch" }
func (s *tsearch) Time() int64  { return s.t }
func (s *tsearch) Done() bool   { return s.done }

func (s *tsearch) Step() {
	if s.next >= len(s.queries) {
		if s.rg != nil {
			s.handleFlushes(s.rg.Drain())
		}
		if s.firstActive >= 0 {
			s.rep.span("TSearch", "wait", 0, s.firstActive)
			s.rep.span("TSearch", "search", s.firstActive, s.t)
		}
		s.done = true
		return
	}
	lo := s.next
	hi := lo + s.cfg.ChunkPoints
	if hi > len(s.queries) {
		hi = len(s.queries)
	}
	if !s.cfg.DisableStreamMerge {
		// Snoop Rd1: queries become available only once TBuild has read
		// them from memory.
		if s.tb.readUpTo < hi && !s.tb.Done() {
			// Starved: idle until TBuild makes progress.
			wait := s.tb.Time() + 1
			if wait <= s.t {
				wait = s.t + 1
			}
			s.t = wait
			return
		}
	} else {
		// Dedicated Rd2 stream.
		memDone := s.port.Access(s.t, s.amap.PointAddr(0, lo), (hi-lo)*geom.PointBytes, false, dram.StreamRd2)
		if memDone > s.t {
			s.t = memDone
		}
	}
	if s.firstActive < 0 {
		s.firstActive = s.t
	}
	var paths []traversal.Path
	var flushes []gather.Flush
	for i := lo; i < hi; i++ {
		bucket, bits, depth := s.tree.FindLeafBits(s.queries[i])
		targets := []int32{bucket}
		if s.cfg.ExactBacktrack {
			// The exact search visits every bucket the query ball
			// overlaps; each visit is a full re-descent plus a scan.
			_, visited, _ := s.tree.SearchExactBuckets(s.queries[i], s.cfg.K)
			targets = visited
		}
		for range targets {
			paths = append(paths, traversal.Path{Bits: bits, Depth: depth})
		}
		for _, b := range targets {
			if s.rg != nil {
				flushes = append(flushes, s.rg.Insert(b, int32(i))...)
			} else {
				flushes = append(flushes, gather.Flush{Bucket: b, Items: []int32{int32(i)}})
			}
		}
	}
	compute := s.traversalCycles(paths)
	s.rep.SearchTraversalCycles += compute
	s.t += compute
	s.handleFlushes(flushes)
	s.next = hi
}

func (s *tsearch) traversalCycles(paths []traversal.Path) int64 {
	if s.cfg.TreeInDRAM {
		done := s.t
		for _, p := range paths {
			for l := 1; l <= p.Depth; l++ {
				id := (uint64(1) << uint(l)) | (p.Bits >> uint(p.Depth-l))
				done = s.port.Access(done, s.amap.NodeAddr(id), 16, false, dram.StreamOther)
			}
		}
		if done > s.t {
			return done - s.t
		}
		return 0
	}
	r := traversal.Simulate(paths, traversal.Config{
		Workers: s.cfg.Workers, Banks: s.cfg.Banks, DupLevels: -1, Scheme: s.cfg.Scheme,
	})
	return r.Cycles
}

// handleFlushes executes one NN search per flushed gather bucket: fetch
// the bucket's blocks (Rd3), stream them through the FUs, write results
// (Wr2).
func (s *tsearch) handleFlushes(flushes []gather.Flush) {
	resultBytes := fu.ResultBytes(s.cfg.K)
	for _, f := range flushes {
		bucketPoints := s.alloc.points(f.Bucket)
		memDone := s.t
		for _, r := range s.alloc.reads(f.Bucket) {
			memDone = s.port.Access(memDone, r.addr, r.bytes, false, dram.StreamRd3)
		}
		// The FUs serve ⌈queries/FUs⌉ passes over the bucket stream.
		passes := (len(f.Items) + s.cfg.FUs - 1) / s.cfg.FUs
		compute := int64(passes) * int64(bucketPoints)
		s.rep.FUCycles += compute
		t := s.t + compute
		if memDone > t {
			t = memDone
		}
		s.t = t
		if s.bank != nil {
			s.computeResults(f)
		}
		for _, q := range f.Items {
			s.t = s.port.Access(s.t, s.amap.ResultAddr(int(q), resultBytes), resultBytes, true, dram.StreamWr2)
		}
	}
}

// computeResults runs the functional FU datapath for a flush. In
// exact-backtracking mode the per-query candidate list survives across the
// query's several bucket visits in hardware; the software equivalent is
// the tree's exact search, which Step fills in at drain time instead.
func (s *tsearch) computeResults(f gather.Flush) {
	if s.cfg.ExactBacktrack {
		for _, qi := range f.Items {
			res, _ := s.tree.Search(s.queries[qi], kdtree.Spec{Mode: kdtree.Exact, K: s.cfg.K})
			s.rep.Results[qi] = res
		}
		return
	}
	bk := s.tree.BucketByID(f.Bucket)
	if bk == nil {
		return
	}
	s.bucketPts = s.tree.AppendBucketPoints(s.bucketPts[:0], f.Bucket)
	for base := 0; base < len(f.Items); base += s.cfg.FUs {
		end := base + s.cfg.FUs
		if end > len(f.Items) {
			end = len(f.Items)
		}
		qs := make([]geom.Point, end-base)
		ids := make([]int, end-base)
		for i, qi := range f.Items[base:end] {
			qs[i] = s.queries[qi]
			ids[i] = int(qi)
		}
		s.bank.Load(qs, ids)
		s.bank.Stream(s.bucketPts, s.tree.BucketIndices(f.Bucket))
		for _, r := range s.bank.Flush() {
			s.rep.Results[r.QueryID] = r.Neighbors
		}
	}
}
