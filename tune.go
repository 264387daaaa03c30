package quicknn

import "github.com/quicknn/quicknn/internal/lidar"

// TuneResult reports one bucket size evaluated by TuneBucketSize.
type TuneResult struct {
	BucketSize int
	Report     AccuracyReport
	// MeanScan is the average points distance-tested per query — the
	// latency proxy that grows with bucket size (§2.2: "the larger bucket
	// sizes provide the better accuracy. However, the number of
	// comparisons increases, and so does the latency").
	MeanScan float64
}

// TuneBucketSize sweeps bucket sizes and returns the smallest one whose
// top-k@x recall meets target — the paper's procedure for picking
// B_N = 256 ("if we aim at 75% top-10 accuracy, the minimum bucket size
// is 256"). The full sweep is returned for inspection; if no size meets
// the target, the best (last) one is selected. It panics where BuildIndex
// would return an error: an empty reference or a non-finite point.
func TuneBucketSize(reference, queries []Point, k, x int, target float64) (selected TuneResult, sweep []TuneResult) {
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	for _, bn := range sizes {
		ix, err := BuildIndex(reference, WithBucketSize(bn))
		if err != nil {
			panic("quicknn: TuneBucketSize: " + err.Error())
		}
		rep := ix.Accuracy(queries, k, x)
		stats := ix.Stats()
		res := TuneResult{BucketSize: bn, Report: rep, MeanScan: stats.Mean}
		sweep = append(sweep, res)
		if rep.TopKRecall >= target {
			return res, sweep
		}
	}
	return sweep[len(sweep)-1], sweep
}

// VoxelDownsample reduces a point cloud to one centroid per occupied
// voxel of the given cell size (meters) — the standard density-equalizing
// preprocessing for LiDAR frames.
func VoxelDownsample(pts []Point, cell float32) []Point {
	return lidar.VoxelDownsample(pts, cell)
}

// GroundModel is a fitted ground plane.
type GroundModel = lidar.GroundModel

// EstimateGroundPlane fits a ground plane to a raw frame (lowest-return
// seeding plus iterative refit, after the fast-segmentation approach the
// paper cites for its preprocessing step).
func EstimateGroundPlane(pts []Point) GroundModel {
	return lidar.EstimateGround(pts, lidar.GroundConfig{})
}

// RemoveGroundPlane drops points within clearance meters of the fitted
// ground plane, returning the obstacle returns kNN search runs over.
func RemoveGroundPlane(pts []Point, model GroundModel, clearance float64) []Point {
	_, obstacles := lidar.SegmentGround(pts, model, clearance)
	return obstacles
}
