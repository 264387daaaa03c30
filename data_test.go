package quicknn

import (
	"testing"

	"github.com/quicknn/quicknn/internal/lidar"
)

// TestSyntheticFramesShortScanReturnedWhole pins SyntheticFrames'
// documented shortfall: a frame whose ground-removed scan has fewer than
// n returns comes back whole, shorter than n, in scan order. Seed 126 is
// such a drive at the paper's 30k operating point (its first frame has
// 29,766 returns); the benchmark in perfbench/ generates its frames
// through this function, so its output must not change.
func TestSyntheticFramesShortScanReturnedWhole(t *testing.T) {
	const n = 30000
	frames := SyntheticFrames(n, 2, 126)
	if got := []int{len(frames[0]), len(frames[1])}; got[0] != 29766 || got[1] != n {
		t.Fatalf("frame sizes = %v, want [29766 %d]", got, n)
	}
	cfg := lidar.DefaultSequenceConfig()
	cfg.Frames = 2
	cfg.Seed = 126
	scan := lidar.Sequence(cfg)[0].Points
	if len(scan) != len(frames[0]) {
		t.Fatalf("short frame has %d points, its scan %d", len(frames[0]), len(scan))
	}
	for i := range scan {
		if scan[i] != frames[0][i] {
			t.Fatalf("short frame differs from its scan at point %d", i)
		}
	}
}
