package kdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// The zero-allocation contract of docs/performance.md, enforced: a
// SearchInto call with a warm Scratch and a caller-owned dst performs zero heap
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

	stop := func() bool { return false }
	for _, spec := range []Spec{
		{Mode: Approx, K: k},
		{Mode: Exact, K: k},
		{Mode: Checks, K: k, Checks: 1024},
		{Mode: Radius, Radius: 1.0}, // dst is pre-sized for its matches
	} {
		for _, st := range []struct {
			name string
			fn   func() bool
		}{{"nil-stop", nil}, {"stop", stop}} {
			assertZeroAllocs(t, fmt.Sprintf("SearchInto/mode%d/%s", spec.Mode, st.name), func() {
				dst, _, _ = tree.SearchInto(next(), spec, s, dst[:0], st.fn)
			})
		}
	}
}

// TestSearchAllAllocsBounded pins a one-worker batch over freshly carved
// result regions to its allocation budget: one [][]Neighbor header array
// plus one flat backing array per batch, regardless of query count.
func TestSearchAllAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	pts := clusteredPoints(20000, 74)
	tree := mustBuild(t, pts, Config{BucketSize: 256}, 75)
	queries := equivalenceQueries(512, 76)
	const k = 10
	searchAll(tree, queries, Spec{K: k}) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() {
		searchAll(tree, queries, Spec{K: k})
	})
	// out headers + flat backing = 2; tolerate one pool refill.
	if allocs > 3 {
		t.Errorf("searchAll: %v allocs per 512-query batch, want <= 3", allocs)
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
		got, gotStats, _ := tree.SearchInto(q, Spec{Mode: Exact, K: k}, s, nil, nil)
		want, wantStats := refSearchExactTight(tree, q, k)
		diffNeighbors(t, "reuse/exact", got, want, gotStats, wantStats)
	}
}
