// Quickstart: build a k-d tree index over a LiDAR frame and run the
// successive-frame kNN search, comparing approximate against exact
// results — the minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"github.com/quicknn/quicknn"
)

func main() {
	// Two successive synthetic LiDAR frames, ground points removed,
	// 30k points each (the paper's main operating point).
	reference, query := quicknn.SuccessiveFrames(30000, 42)

	// Build the bucketed k-d tree over the reference frame.
	start := time.Now()
	index, err := quicknn.BuildIndex(reference, quicknn.WithBucketSize(256))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d points in %v\n", index.Len(), time.Since(start).Round(time.Millisecond))

	// Approximate k-nearest-neighbor search for one query point.
	const k = 8
	ctx := context.Background()
	q := query[0]
	approx, err := index.Query(ctx, q, quicknn.QueryOptions{K: k})
	if err != nil {
		log.Fatal(err)
	}
	for i, nb := range approx {
		fmt.Printf("  neighbor %d: %v at %.3f m\n", i, nb.Point, dist(nb.DistSq))
	}

	// The whole successive-frame workload: every query point searched.
	start = time.Now()
	results, err := index.QueryBatch(ctx, query, quicknn.QueryOptions{K: k})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("searched %d queries in %v (%.1f ms/frame)\n",
		len(results), elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/1000)

	// How approximate is approximate? (Fig. 3 of the paper.)
	report := index.Accuracy(query[:500], 5, 5)
	fmt.Printf("accuracy: top-1 %.1f%%, all-5-in-top-10 %.1f%% over %d queries\n",
		100*report.Top1Recall, 100*report.TopKRecall, report.Queries)

	// Exact search is available when needed (backtracking).
	exact, err := index.Query(ctx, q, quicknn.QueryOptions{K: k, Mode: quicknn.ModeExact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact vs approximate nearest: %.3f m vs %.3f m\n",
		dist(exact[0].DistSq), dist(approx[0].DistSq))
}

// dist converts the library's native squared distances (the hardware FUs
// compare squares to avoid a root) to meters for display.
func dist(d2 float64) float64 { return math.Sqrt(d2) }
