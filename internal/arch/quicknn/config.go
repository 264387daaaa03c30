// Package quicknn simulates the complete QuickNN architecture of §4–§5:
// TBuild and TSearch halves sharing one external DRAM interface, with the
// paper's full set of memory and performance optimizations —
//
//   - tree nodes cached on chip for their lifetime, buckets organized as
//     contiguous linked blocks in DRAM (§4.1);
//   - write-gather and read-gather caches turning random point traffic
//     into burst traffic (§4.2);
//   - the Rd1/Rd2 stream merge: TSearch snoops TBuild's read of the shared
//     frame, eliminating a full frame read per round (§4.2, Fig. 6/7);
//   - parallel tree traversal with a banked lower-tree cache (§4.3);
//   - optional static-tree and incremental tree-update modes (§4.4).
//
// Every optimization has a Disable* switch so the ablations of Fig. 12
// (Simple k-d = everything off) fall out of the same model.
package quicknn

import (
	"github.com/quicknn/quicknn/internal/arch/traversal"
	"github.com/quicknn/quicknn/internal/obs"
)

// TreeMode selects how TBuild obtains each frame's tree (§4.4).
type TreeMode int

// Tree maintenance modes.
const (
	// ModeRebuild constructs the tree from scratch every frame (the
	// prototype's choice at ≤100k points).
	ModeRebuild TreeMode = iota
	// ModeStatic reuses the first frame's splits forever; only buckets
	// are refilled. Fast but degrades (Fig. 10).
	ModeStatic
	// ModeIncremental reuses the splits and rebalances out-of-bound
	// buckets by local merge/split (the paper's incremental tree update).
	ModeIncremental
)

// String names the mode.
func (m TreeMode) String() string {
	switch m {
	case ModeRebuild:
		return "rebuild"
	case ModeStatic:
		return "static"
	case ModeIncremental:
		return "incremental"
	default:
		return "mode(?)"
	}
}

// ParseTreeMode is String's inverse: it returns the mode named
// "rebuild", "static" or "incremental", and false for any other name.
func ParseTreeMode(name string) (TreeMode, bool) {
	for m := ModeRebuild; m <= ModeIncremental; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Config parameterizes the QuickNN instance. The zero value selects the
// paper's 64-FU prototype operating point; Disable* flags are ablations
// (all optimizations are on by default).
type Config struct {
	// FUs is the number of functional units in TSearch (16–128 in the
	// paper's sweeps).
	FUs int
	// K is the number of nearest neighbors returned per query.
	K int
	// BucketSize is the k-d tree bucket target B_N.
	BucketSize int
	// BlockPoints is the bucket-block payload in points; zero matches
	// BucketSize (one block holds a nominal bucket).
	BlockPoints int

	// WriteGatherSlots/WriteGatherDepth are w_b/w_n (§4.2); defaults
	// 128/4, the "modest cache" providing ~3× memory-access speedup.
	WriteGatherSlots, WriteGatherDepth int
	// ReadGatherSlots is r_b; default 128. ReadGatherDepth is r_n and
	// defaults to the number of FUs (r_n ≥ N_FU keeps the FUs busy).
	ReadGatherSlots, ReadGatherDepth int

	// Workers/Banks/Scheme parameterize the parallel tree traversal in
	// both halves; defaults 8 workers, 4 banks, group partitioning.
	Workers, Banks int
	Scheme         traversal.Scheme

	// SortWays is the merge-sort accelerator's merge width; default 8.
	SortWays int
	// ChunkPoints is the co-simulation interleave granularity; default 64.
	ChunkPoints int

	// Mode selects tree maintenance across frames.
	Mode TreeMode

	// DisableStreamMerge makes TSearch issue its own Rd2 query reads
	// instead of snooping Rd1.
	DisableStreamMerge bool
	// DisableWriteGather writes each placed point to its bucket block
	// individually.
	DisableWriteGather bool
	// DisableReadGather reads the target bucket once per query.
	DisableReadGather bool
	// TreeInDRAM evicts the tree node table to external memory: every
	// traversal step becomes a random DRAM read (the "Simple k-d"
	// strawman of Fig. 12 combines this with the gather ablations).
	TreeInDRAM bool

	// ExactBacktrack makes TSearch perform the exact (backtracking)
	// search instead of the single-bucket approximate search: every
	// bucket the backtracking visits costs a bucket fetch and an FU
	// pass. This is the "comparable sized architecture performing an
	// exact search" the abstract reports a 14.5× speedup over.
	ExactBacktrack bool

	// ComputeResults runs the functional FU datapath so the report
	// carries real neighbor lists.
	ComputeResults bool

	// Obs attaches an observability sink: engine phase spans
	// (Report.Timeline) land on the tracer as the round simulates,
	// per-round cycle/FPS/tree counters enter the metrics registry, and
	// the shared DRAM publishes per-stream latency histograms and
	// row-hit/refresh counters (see internal/obs and
	// docs/observability.md). nil — the default — keeps the simulation
	// instrumentation-free apart from one nil check per round.
	Obs *obs.Sink
}

func (c Config) withDefaults() Config {
	if c.FUs <= 0 {
		c.FUs = 64
	}
	if c.K <= 0 {
		c.K = 8
	}
	if c.BucketSize <= 0 {
		c.BucketSize = 256
	}
	if c.BlockPoints <= 0 {
		c.BlockPoints = c.BucketSize
	}
	if c.WriteGatherSlots <= 0 {
		c.WriteGatherSlots = 128
	}
	if c.WriteGatherDepth <= 0 {
		c.WriteGatherDepth = 4
	}
	if c.ReadGatherSlots <= 0 {
		c.ReadGatherSlots = 128
	}
	if c.ReadGatherDepth <= 0 {
		c.ReadGatherDepth = c.FUs
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Banks <= 0 {
		c.Banks = 4
	}
	if c.SortWays <= 0 {
		c.SortWays = 8
	}
	if c.ChunkPoints <= 0 {
		c.ChunkPoints = 64
	}
	return c
}
