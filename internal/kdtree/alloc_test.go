package kdtree

import (
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// The zero-allocation contract of docs/performance.md, enforced: a *Into
// search with a warm Scratch and a caller-owned dst performs zero heap
// allocations in steady state. Any regression (a closure capture, an
// interface box, a slice that escapes) fails these guards immediately.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	fn() // warm-up: grow scratch/dst capacities once
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, allocs)
	}
}

func TestSearchIntoZeroAllocs(t *testing.T) {
	pts := clusteredPoints(20000, 71)
	tree := mustBuild(t, pts, Config{BucketSize: 256}, 72)
	queries := equivalenceQueries(64, 73)
	const k = 10
	s := NewScratch()
	dst := make([]nn.Neighbor, 0, 4096)
	qi := 0
	next := func() geom.Point {
		q := queries[qi%len(queries)]
		qi++
		return q
	}

	assertZeroAllocs(t, "SearchApproxInto", func() {
		dst, _ = tree.SearchApproxInto(next(), k, s, dst[:0])
	})
	assertZeroAllocs(t, "SearchExactInto", func() {
		dst, _ = tree.SearchExactInto(next(), k, s, dst[:0])
	})
	assertZeroAllocs(t, "SearchChecksInto", func() {
		dst, _ = tree.SearchChecksInto(next(), k, 1024, s, dst[:0])
	})
	assertZeroAllocs(t, "SearchRadiusInto", func() {
		dst, _ = tree.SearchRadiusInto(next(), 1.0, s, dst[:0])
	})
	stop := func() bool { return false }
	assertZeroAllocs(t, "SearchExactStopInto", func() {
		dst, _, _ = tree.SearchExactStopInto(next(), k, s, dst[:0], stop)
	})
}

// TestSearchAllAllocsBounded pins the batch fan-outs to their documented
// allocation budget: one [][]Neighbor header array plus one flat backing
// array per batch, regardless of query count.
func TestSearchAllAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	pts := clusteredPoints(20000, 74)
	tree := mustBuild(t, pts, Config{BucketSize: 256}, 75)
	queries := equivalenceQueries(512, 76)
	const k = 10
	tree.SearchAllApprox(queries, k) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() {
		tree.SearchAllApprox(queries, k)
	})
	// out headers + flat backing = 2; tolerate one pool refill.
	if allocs > 3 {
		t.Errorf("SearchAllApprox: %v allocs per 512-query batch, want <= 3", allocs)
	}
}

// TestScratchReuseAcrossKs checks Init-based reuse: shrinking and growing
// k on the same Scratch never leaks state between queries.
func TestScratchReuseAcrossKs(t *testing.T) {
	pts := clusteredPoints(5000, 77)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 78)
	s := NewScratch()
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(20)
		q := geom.Point{
			X: float32(rng.Float64()*100 - 50),
			Y: float32(rng.Float64()*100 - 50),
			Z: float32(rng.Float64() * 4),
		}
		got, gotStats := tree.SearchExactInto(q, k, s, nil)
		want, wantStats := refSearchExactTight(tree, q, k)
		diffNeighbors(t, "reuse/exact", got, want, gotStats, wantStats)
	}
}
