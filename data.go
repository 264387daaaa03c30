package quicknn

import (
	"math/rand"

	"github.com/quicknn/quicknn/internal/lidar"
)

// FrameOption customizes synthetic LiDAR generation.
type FrameOption func(*lidar.SequenceConfig)

// WithFrameRate sets the scan rate in frames per second (default 10).
func WithFrameRate(fps float64) FrameOption {
	return func(c *lidar.SequenceConfig) { c.FrameRate = fps }
}

// WithEgoSpeed sets the ego vehicle's forward speed in m/s (default 8).
func WithEgoSpeed(ms float64) FrameOption {
	return func(c *lidar.SequenceConfig) { c.EgoSpeed = ms }
}

// WithGroundThreshold sets the ground-removal height cut in meters
// (default 0.3; ≤0 keeps ground points).
func WithGroundThreshold(m float32) FrameOption {
	return func(c *lidar.SequenceConfig) { c.GroundThreshold = m }
}

// WithCampusScene swaps the default street scene for the open campus-like
// environment used to crosscheck results (the paper's Ford Campus
// counterpart to KITTI).
func WithCampusScene() FrameOption {
	return func(c *lidar.SequenceConfig) { c.Scene = lidar.CampusSceneConfig() }
}

// SyntheticFrames simulates a LiDAR drive and returns `count` successive
// frames, each downsampled to at most n points (ground points removed) —
// the successive-frame workload the paper benchmarks with. The same seed
// always produces the same drive.
//
// A frame whose ground-removed scan has fewer than n returns is returned
// whole, so it is shorter than n: at n = 30,000, seed 126's first frame
// has 29,766 points. Callers that need a fixed size must size their work
// to len(frame).
func SyntheticFrames(n, count int, seed int64, opts ...FrameOption) [][]Point {
	cfg := lidar.DefaultSequenceConfig()
	cfg.Frames = count
	cfg.Seed = seed
	for _, fn := range opts {
		fn(&cfg)
	}
	seq := lidar.Sequence(cfg)
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	out := make([][]Point, len(seq))
	for i, f := range seq {
		out[i] = lidar.Downsample(f.Points, n, rng)
	}
	return out
}

// SuccessiveFrames returns one reference/query frame pair of n points
// each — the minimal successive-frame workload.
func SuccessiveFrames(n int, seed int64) (reference, query []Point) {
	return lidar.FramePair(n, seed)
}
