// Moving-object detection: the successive-frame kNN use case of §1 —
// "this successive-frame kNN search is used to differentiate the
// surroundings from moving objects". Points of the current frame whose
// nearest neighbor in the (motion-compensated) previous frame is far away
// belong to surfaces that moved between scans.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"github.com/quicknn/quicknn"
)

func main() {
	const (
		points    = 20000
		threshold = 0.35 // meters: static surfaces re-observe within this
	)
	// Two frames 100 ms apart; vehicles move ~0.5-1.5 m between scans,
	// pedestrians ~0.1 m, buildings not at all.
	drive := quicknn.SyntheticFrames(points, 2, 21)
	prev, cur := drive[0], drive[1]

	// Compensate ego-motion first: align the current frame onto the
	// previous one so static structure overlaps.
	ref, err := quicknn.BuildIndex(prev)
	if err != nil {
		log.Fatal(err)
	}
	motion := quicknn.EstimateMotion(ref, cur, quicknn.ICPConfig{Iterations: 20, Subsample: 2})
	aligned := motion.Motion.ApplyAll(cur)
	fmt.Printf("ego-motion compensated: RMSE %.3f m over %d pairs\n", motion.RMSE, motion.Pairs)

	// Successive-frame kNN: distance to the nearest previous-frame point.
	ctx := context.Background()
	results, err := ref.QueryBatch(ctx, aligned, quicknn.QueryOptions{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	var moving []quicknn.Point
	var dists []float64
	for i, r := range results {
		if len(r) == 0 {
			continue
		}
		d := math.Sqrt(r[0].DistSq)
		dists = append(dists, d)
		if d > threshold {
			moving = append(moving, aligned[i])
		}
	}
	sort.Float64s(dists)
	fmt.Printf("nearest-neighbor residuals: median %.3f m, p95 %.3f m\n",
		dists[len(dists)/2], dists[len(dists)*95/100])
	fmt.Printf("flagged %d of %d points (%.1f%%) as moving\n",
		len(moving), len(aligned), 100*float64(len(moving))/float64(len(aligned)))

	// Cluster the flagged points into objects by greedy proximity (a
	// tiny stand-in for the detection stage that consumes kNN output).
	clusters := clusterPoints(ctx, moving, 1.5)
	sort.Slice(clusters, func(i, j int) bool { return len(clusters[i]) > len(clusters[j]) })
	fmt.Printf("moving clusters (≥20 points):\n")
	shown := 0
	for _, c := range clusters {
		if len(c) < 20 {
			continue
		}
		cx, cy := centroid(c)
		fmt.Printf("  %4d points near (%.1f, %.1f)\n", len(c), cx, cy)
		shown++
		if shown >= 8 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("  none (scene static)")
	}
}

// clusterPoints greedily groups points within `radius` of a cluster seed,
// using a k-d index for the range lookups.
func clusterPoints(ctx context.Context, pts []quicknn.Point, radius float64) [][]quicknn.Point {
	if len(pts) == 0 {
		return nil
	}
	ix, err := quicknn.BuildIndex(pts, quicknn.WithBucketSize(64))
	if err != nil {
		log.Fatal(err)
	}
	sc := quicknn.NewScratch()
	var nbs []quicknn.Neighbor
	assigned := make([]bool, len(pts))
	var clusters [][]quicknn.Point
	for i := range pts {
		if assigned[i] {
			continue
		}
		cluster := []quicknn.Point{pts[i]}
		assigned[i] = true
		frontier := []quicknn.Point{pts[i]}
		for len(frontier) > 0 {
			p := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if nbs, err = ix.QueryInto(ctx, p, quicknn.QueryOptions{K: 16}, sc, nbs[:0]); err != nil {
				log.Fatal(err)
			}
			for _, nb := range nbs {
				if !assigned[nb.Index] && math.Sqrt(nb.DistSq) <= radius {
					assigned[nb.Index] = true
					cluster = append(cluster, nb.Point)
					frontier = append(frontier, nb.Point)
				}
			}
		}
		clusters = append(clusters, cluster)
	}
	return clusters
}

func centroid(pts []quicknn.Point) (x, y float64) {
	for _, p := range pts {
		x += float64(p.X)
		y += float64(p.Y)
	}
	n := float64(len(pts))
	return x / n, y / n
}
