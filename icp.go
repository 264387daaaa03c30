package quicknn

import (
	"context"
	"math"
	"sort"
)

// ICPConfig tunes EstimateMotion.
type ICPConfig struct {
	// Iterations is the number of match/fit rounds (default 20).
	Iterations int
	// K is the number of neighbors requested per match; the nearest is
	// used (default 1). Larger K only affects outlier statistics.
	K int
	// MaxPairDist rejects correspondences farther than this many meters;
	// ≤0 derives 3× the median pair distance each iteration.
	MaxPairDist float64
	// Subsample uses every i-th query point for matching (default 1 =
	// all points); raise it to trade accuracy for speed.
	Subsample int
}

func (c ICPConfig) withDefaults() ICPConfig {
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.K <= 0 {
		c.K = 1
	}
	if c.Subsample <= 0 {
		c.Subsample = 1
	}
	return c
}

// ICPResult reports the estimated motion and fit quality.
type ICPResult struct {
	// Motion maps query-frame coordinates into reference-frame
	// coordinates (the inverse of the ego-motion between the scans).
	Motion Transform
	// RMSE is the final root-mean-square correspondence distance in
	// meters.
	RMSE float64
	// Iterations is the number of rounds executed.
	Iterations int
	// Pairs is the number of inlier correspondences in the final round.
	Pairs int
}

// EstimateMotion aligns a query frame to the reference index with
// iterative closest point — the algorithm whose inner loop motivates
// QuickNN ("75% of the ICP is spending on kNN search"). The motion model
// is the ground-vehicle one: yaw about Z plus translation.
func EstimateMotion(ref *Index, query []Point, cfg ICPConfig) ICPResult {
	cfg = cfg.withDefaults()
	total := Transform{}
	moved := append([]Point(nil), query...)
	res := ICPResult{}
	// One scratch and one result buffer serve every match of the call.
	sc := getQueryScratch()
	defer putQueryScratch(sc)
	var nb []Neighbor
	for iter := 0; iter < cfg.Iterations; iter++ {
		res.Iterations = iter + 1
		// Match.
		type pair struct {
			q, p Point
			d    float64
		}
		var pairs []pair
		for i := 0; i < len(moved); i += cfg.Subsample {
			// Cannot fail: K > 0 and the context is never cancelled.
			nb, _ = ref.QueryInto(context.Background(), moved[i], QueryOptions{K: cfg.K}, sc, nb[:0])
			if len(nb) == 0 {
				continue
			}
			pairs = append(pairs, pair{q: moved[i], p: nb[0].Point, d: math.Sqrt(nb[0].DistSq)})
		}
		if len(pairs) < 3 {
			break
		}
		// Reject outliers. The floor keeps the cut from collapsing when
		// self-similar structure (walls) makes the median tiny while the
		// informative pairs still carry the full inter-frame motion.
		cut := cfg.MaxPairDist
		if cut <= 0 {
			ds := make([]float64, len(pairs))
			for i, pr := range pairs {
				ds[i] = pr.d
			}
			sort.Float64s(ds)
			cut = 3*ds[len(ds)/2] + 1e-6
			if cut < 1.0 {
				cut = 1.0
			}
		}
		inliers := pairs[:0]
		for _, pr := range pairs {
			if pr.d <= cut {
				inliers = append(inliers, pr)
			}
		}
		if len(inliers) < 3 {
			break
		}
		// Fit yaw+translation (Procrustes in XY, mean offset in Z).
		var qcx, qcy, qcz, pcx, pcy, pcz float64
		for _, pr := range inliers {
			qcx += float64(pr.q.X)
			qcy += float64(pr.q.Y)
			qcz += float64(pr.q.Z)
			pcx += float64(pr.p.X)
			pcy += float64(pr.p.Y)
			pcz += float64(pr.p.Z)
		}
		n := float64(len(inliers))
		qcx /= n
		qcy /= n
		qcz /= n
		pcx /= n
		pcy /= n
		pcz /= n
		var sCross, sDot float64
		for _, pr := range inliers {
			qx := float64(pr.q.X) - qcx
			qy := float64(pr.q.Y) - qcy
			px := float64(pr.p.X) - pcx
			py := float64(pr.p.Y) - pcy
			sCross += qx*py - qy*px
			sDot += qx*px + qy*py
		}
		yaw := math.Atan2(sCross, sDot)
		sin, cos := math.Sincos(yaw)
		step := Transform{
			Yaw: yaw,
			Translation: Point{
				X: float32(pcx - (qcx*cos - qcy*sin)),
				Y: float32(pcy - (qcx*sin + qcy*cos)),
				Z: float32(pcz - qcz),
			},
		}
		total = total.Compose(step)
		moved = step.ApplyAll(moved)
		// Converged?
		var sse float64
		for _, pr := range inliers {
			sse += pr.d * pr.d
		}
		res.RMSE = math.Sqrt(sse / n)
		res.Pairs = len(inliers)
		if math.Abs(yaw) < 1e-5 && step.Translation.Norm() < 1e-4 {
			break
		}
	}
	res.Motion = total
	return res
}
