package quicknn

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestSearchAllParallelRace is a regression test for the goroutine fan-out
// of Index.QueryBatch: many concurrent multi-worker QueryBatch calls run
// against one shared, immutable index over overlapping query slices. Under
// `go test -race` this proves the workers only ever write disjoint result
// slots and never mutate shared tree state; without -race it still checks
// that every parallel result matches the serial reference answer.
func TestSearchAllParallelRace(t *testing.T) {
	reference, query := SuccessiveFrames(2000, 99)
	ix := mustIndex(t, reference, WithSeed(7))
	const k = 5
	want := mustQueryBatch(t, ix, query, QueryOptions{K: k, Workers: 1})

	// Overlapping windows of the query set, searched concurrently with
	// different worker counts against the same index.
	windows := [][2]int{{0, 2000}, {0, 1200}, {800, 2000}, {500, 1500}, {0, 2000}}
	var wg sync.WaitGroup
	errs := make(chan string, len(windows)*4)
	for rep := 0; rep < 3; rep++ {
		for wi, w := range windows {
			wg.Add(1)
			go func(rep, wi, lo, hi, workers int) {
				defer wg.Done()
				got, err := ix.QueryBatch(context.Background(), query[lo:hi], QueryOptions{K: k, Workers: workers})
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got) != hi-lo {
					errs <- "wrong result count"
					return
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[lo+i]) {
						errs <- "parallel result diverges from serial result"
						return
					}
				}
			}(rep, wi, w[0], w[1], 1+(rep+wi)%5)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSearchAllParallelWorkerEdgeCases pins the degenerate worker counts
// the fan-out must normalise: zero (GOMAXPROCS), more workers than
// queries, and the serial fallback.
func TestSearchAllParallelWorkerEdgeCases(t *testing.T) {
	reference, query := SuccessiveFrames(300, 3)
	ix := mustIndex(t, reference, WithSeed(1))
	const k = 3
	want := mustQueryBatch(t, ix, query, QueryOptions{K: k, Workers: 1})
	for _, workers := range []int{-1, 0, 1, 2, 7, len(query), len(query) + 50} {
		got := mustQueryBatch(t, ix, query, QueryOptions{K: k, Workers: workers})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel result diverges from serial", workers)
		}
	}
	if got := mustQueryBatch(t, ix, nil, QueryOptions{K: k, Workers: 4}); len(got) != 0 {
		t.Errorf("empty query set: got %d results, want 0", len(got))
	}
}
