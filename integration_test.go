package quicknn

import (
	"math"
	"sort"
	"testing"
)

// TestPipelineSoftwareVsSimulator runs the complete successive-frame
// pipeline both ways — the software library and the simulated accelerator
// with functional results on — and requires bit-identical neighbor lists.
func TestPipelineSoftwareVsSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	frames := SyntheticFrames(6000, 2, 31)
	prev, cur := frames[0], frames[1]

	ix := mustIndex(t, prev, WithBucketSize(256), WithSeed(7))
	soft := mustQueryBatch(t, ix, cur, QueryOptions{K: 8, Workers: 1})

	cfg := SimConfig{FUs: 64, K: 8, BucketSize: 256, ComputeResults: true}
	rep := SimulateAccelerator(prev, cur, cfg, 7)

	if len(rep.Results) != len(soft) {
		t.Fatalf("result counts differ: %d vs %d", len(rep.Results), len(soft))
	}
	mismatches := 0
	for qi := range soft {
		a, b := soft[qi], rep.Results[qi]
		if len(a) != len(b) {
			mismatches++
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				mismatches++
				break
			}
		}
	}
	// The simulator builds its own tree with the same seed and config, so
	// the searches are over identical structures: exact agreement.
	if mismatches != 0 {
		t.Fatalf("%d of %d queries disagree between software and simulator", mismatches, len(soft))
	}
}

// TestPipelineDriveConsistency runs a 4-frame drive through both the
// incremental software index and the accelerator drive simulation and
// checks the structural invariants hold at every round.
func TestPipelineDriveConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	frames := SyntheticFrames(5000, 4, 32)

	// Software: incremental updates keep all points findable.
	ix := mustIndex(t, frames[0])
	for _, f := range frames[1:] {
		ix.Update(f)
		s := ix.Stats()
		if s.Max > 2*256 {
			t.Errorf("software incremental update exceeded 2·B_N: %d", s.Max)
		}
	}

	// Accelerator: the drive chains trees; each round's tree holds its
	// frame and the steady-state rounds stay within sane bounds.
	rep := SimulateDrive(frames, SimConfig{FUs: 64, K: 8, Mode: ModeIncremental}, 1)
	if len(rep.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	for i, r := range rep.Rounds {
		if r.Tree.NumPoints() != len(frames[i+1]) {
			t.Errorf("round %d tree holds %d points, want %d", i, r.Tree.NumPoints(), len(frames[i+1]))
		}
		if r.BucketStats.Max > 2*256 {
			t.Errorf("round %d bucket max %d exceeds 2·B_N", i, r.BucketStats.Max)
		}
		if u := r.Mem.Utilization(); u <= 0 || u > 1 {
			t.Errorf("round %d utilization %v out of range", i, u)
		}
	}
}

// TestPipelinePerceptionLoop chains preprocessing → odometry → detection:
// the moving-object residuals after ICP compensation must be far smaller
// for static structure than for the scene's moving obstacles.
func TestPipelinePerceptionLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	frames := SyntheticFrames(8000, 2, 33)
	prev, cur := frames[0], frames[1]

	ref := mustIndex(t, prev)
	motion := EstimateMotion(ref, cur, ICPConfig{Iterations: 20, Subsample: 2})
	if motion.Pairs < len(cur)/4 {
		t.Fatalf("ICP matched only %d pairs", motion.Pairs)
	}
	aligned := motion.Motion.ApplyAll(cur)

	results := mustQueryBatch(t, ref, aligned, QueryOptions{K: 1, Workers: 1})
	var residuals []float64
	for _, r := range results {
		if len(r) > 0 {
			residuals = append(residuals, math.Sqrt(r[0].DistSq))
		}
	}
	if len(residuals) < len(aligned)*9/10 {
		t.Fatalf("only %d of %d queries returned results", len(residuals), len(aligned))
	}
	// Median residual (static world) must be decimeter-scale; p99 (moving
	// objects, occlusion edges) much larger.
	med := quantile(residuals, 0.5)
	p99 := quantile(residuals, 0.99)
	if med > 0.4 {
		t.Errorf("median residual = %.3f m; ego-motion compensation failed", med)
	}
	if p99 < 3*med {
		t.Errorf("p99 (%.3f) should far exceed median (%.3f): moving objects must stand out", p99, med)
	}
}

func quantile(vs []float64, q float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
