package quicknn

import (
	"math/rand"

	"github.com/quicknn/quicknn/internal/arch"
	"github.com/quicknn/quicknn/internal/arch/lineararch"
	qsim "github.com/quicknn/quicknn/internal/arch/quicknn"
	"github.com/quicknn/quicknn/internal/dram"
	"github.com/quicknn/quicknn/internal/kdtree"
)

// SimConfig parameterizes the QuickNN accelerator simulation; the zero
// value is the paper's 64-FU prototype. See the field documentation in
// the architecture model for the ablation switches.
type SimConfig = qsim.Config

// SimReport is the outcome of one simulated frame round: cycles, FPS,
// per-component occupancy, DRAM statistics, and (optionally) the computed
// neighbor lists.
type SimReport = qsim.Report

// TreeMode selects how the tree follows each frame (§4.4 of the paper),
// in Index.Advance, PipelineConfig.Mode and SimConfig.Mode.
type TreeMode = qsim.TreeMode

// Tree maintenance modes.
const (
	ModeRebuild     = qsim.ModeRebuild
	ModeStatic      = qsim.ModeStatic
	ModeIncremental = qsim.ModeIncremental
)

// SimulateAccelerator runs one steady-state round of the QuickNN
// accelerator (Fig. 7): the previous frame is indexed into the reference
// tree, then TBuild inserts `current` while TSearch searches every point
// of `current` against the previous tree, sharing a cycle-modelled DDR4.
//
// Set cfg.ComputeResults to also obtain the neighbor lists (identical to
// Index.Search results on the previous frame).
func SimulateAccelerator(previous, current []Point, cfg SimConfig, seed int64) SimReport {
	bucket := cfg.BucketSize
	if bucket <= 0 {
		bucket = 256
	}
	tree := kdtree.Build(previous, kdtree.Config{BucketSize: bucket}, rand.New(rand.NewSource(seed)))
	return qsim.SimulateFrame(tree, current, cfg, dram.New(arch.PrototypeMemConfig()), seed)
}

// DriveReport aggregates a multi-round accelerator simulation over a
// frame sequence.
type DriveReport = qsim.DriveReport

// SimulateDrive runs a whole drive through the accelerator, chaining each
// round's tree into the next (Fig. 7's round pipeline): the first frame
// builds the initial tree, then every later frame is simultaneously
// searched against the previous tree and inserted into its own. Under
// ModeStatic/ModeIncremental the tree maintenance policy accumulates its
// effects across the sequence, as in Fig. 10.
func SimulateDrive(frames [][]Point, cfg SimConfig, seed int64) DriveReport {
	return qsim.SimulateDrive(frames, cfg, arch.PrototypeMemConfig(), seed)
}

// SimulateDriveHBM is SimulateDrive with the high-bandwidth-memory option
// of §7.2 (≈4× the external interface rate).
func SimulateDriveHBM(frames [][]Point, cfg SimConfig, seed int64) DriveReport {
	return qsim.SimulateDrive(frames, cfg, arch.HBMMemConfig(), seed)
}

// LinearSimConfig parameterizes the baseline linear-search architecture.
type LinearSimConfig = lineararch.Config

// LinearSimReport is the linear architecture's simulation outcome.
type LinearSimReport = lineararch.Report

// SimulateLinear runs one frame through the baseline linear-search
// architecture of §3: every query compared against every reference point,
// with all-sequential external memory access.
func SimulateLinear(reference, queries []Point, cfg LinearSimConfig) LinearSimReport {
	return lineararch.Simulate(reference, queries, cfg, dram.New(arch.PrototypeMemConfig()))
}

// CyclesToSeconds converts simulated core cycles to wall time at the
// prototype's 100 MHz clock.
func CyclesToSeconds(cycles int64) float64 { return arch.CyclesToSeconds(cycles) }
