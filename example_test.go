package quicknn_test

import (
	"context"
	"fmt"
	"log"

	"github.com/quicknn/quicknn"
)

// The basic flow: index a reference frame, search a query frame.
func ExampleBuildIndex() {
	reference, query := quicknn.SuccessiveFrames(5000, 1)
	index, err := quicknn.BuildIndex(reference, quicknn.WithBucketSize(256))
	if err != nil {
		log.Fatal(err)
	}
	results, err := index.QueryBatch(context.Background(), query, quicknn.QueryOptions{K: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("queries:", len(results))
	fmt.Println("neighbors per query:", len(results[0]))
	fmt.Println("nearest first:", results[0][0].DistSq <= results[0][7].DistSq)
	// Output:
	// queries: 5000
	// neighbors per query: 8
	// nearest first: true
}

// Exact search backtracks; approximate search reads one bucket. Both are
// modes of Query on the same index.
func ExampleIndex_Query() {
	reference, query := quicknn.SuccessiveFrames(2000, 2)
	index, err := quicknn.BuildIndex(reference)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	exact, err := index.Query(ctx, query[0], quicknn.QueryOptions{K: 3, Mode: quicknn.ModeExact})
	if err != nil {
		log.Fatal(err)
	}
	approx, err := index.Query(ctx, query[0], quicknn.QueryOptions{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact is never farther:", exact[0].DistSq <= approx[0].DistSq)
	// Output:
	// exact is never farther: true
}

// Incremental update (§4.4) re-balances the tree in place across frames.
func ExampleIndex_Update() {
	frames := quicknn.SyntheticFrames(4000, 3, 3)
	index, err := quicknn.BuildIndex(frames[0])
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range frames[1:] {
		if err := index.Update(f); err != nil {
			log.Fatal(err)
		}
	}
	s := index.Stats()
	fmt.Println("points:", index.Len())
	fmt.Println("buckets within 2×B_N:", s.Max <= 512)
	// Output:
	// points: 4000
	// buckets within 2×B_N: true
}

// Simulating the accelerator on a frame pair reports cycle-level
// performance for any design point.
func ExampleSimulateAccelerator() {
	prev, cur := quicknn.SuccessiveFrames(5000, 4)
	rep := quicknn.SimulateAccelerator(prev, cur, quicknn.SimConfig{FUs: 64, K: 8}, 1)
	fmt.Println("ran:", rep.Cycles > 0)
	fmt.Println("faster than 10 FPS LiDAR:", rep.FPS > 10)
	// Output:
	// ran: true
	// faster than 10 FPS LiDAR: true
}
