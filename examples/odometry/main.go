// Odometry: estimate a vehicle's ego-motion from successive LiDAR frames
// with ICP — the application whose inner loop motivates QuickNN ("75% of
// the ICP is spending on kNN search", §1). Each frame is aligned to the
// previous one; the per-frame transforms compose into a trajectory, which
// is compared against the generator's ground truth.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"github.com/quicknn/quicknn"
)

func main() {
	const (
		points = 15000
		frames = 8
		speed  = 8.0 // m/s
		rate   = 10.0
	)
	drive := quicknn.SyntheticFrames(points, frames, 7,
		quicknn.WithEgoSpeed(speed), quicknn.WithFrameRate(rate))

	// Ground truth: the generator moves the ego vehicle at `speed` m/s
	// with a slight turn; per-frame displacement is speed/rate meters.
	truthStep := speed / rate

	pose := quicknn.Transform{} // accumulated trajectory estimate
	var totalNN time.Duration
	fmt.Printf("frame  est dx (m)  est yaw (mrad)  RMSE (m)  pairs   NN+fit time\n")
	for fi := 1; fi < frames; fi++ {
		ref, err := quicknn.BuildIndex(drive[fi-1])
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res := quicknn.EstimateMotion(ref, drive[fi], quicknn.ICPConfig{
			Iterations: 25,
			Subsample:  3,
		})
		dur := time.Since(start)
		totalNN += dur
		// res.Motion maps frame fi's coordinates into frame fi-1's, i.e.
		// the inverse of the ego step; the forward step length is the
		// translation magnitude.
		step := res.Motion.Inverse()
		pose = pose.Compose(step)
		fmt.Printf("%4d   %9.3f   %13.2f   %7.3f   %5d   %v\n",
			fi, step.Translation.Norm(), 1000*step.Yaw, res.RMSE, res.Pairs,
			dur.Round(time.Millisecond))
	}

	est := pose.Translation.Norm()
	want := truthStep * float64(frames-1)
	fmt.Printf("\ntrajectory length: estimated %.2f m, ground truth %.2f m (%.1f%% error)\n",
		est, want, 100*math.Abs(est-want)/want)
	fmt.Printf("total ICP time for %d alignments: %v\n", frames-1, totalNN.Round(time.Millisecond))
	fmt.Println("\n(the kNN inner loop dominates — exactly the workload QuickNN accelerates)")
}
