package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// TestSearchRadiusOrdered asserts the documented result order of the
// radius search: nearest first, distance ties broken on ascending
// reference index. The cloud is built on a coarse grid so distance ties
// are common rather than accidental.
func TestSearchRadiusOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{
			X: float32(rng.Intn(7)),
			Y: float32(rng.Intn(7)),
			Z: float32(rng.Intn(3)),
		}
	}
	tree := Build(pts, Config{BucketSize: 32}, rand.New(rand.NewSource(12)))
	for _, q := range []geom.Point{{}, {X: 3, Y: 3, Z: 1}, {X: 6.5, Y: 0.5, Z: 2}} {
		res, _ := tree.Search(q, Spec{Mode: Radius, Radius: 4})
		if len(res) == 0 {
			t.Fatalf("query %v: no matches at radius 4 in a 7x7x3 grid", q)
		}
		for i := 1; i < len(res); i++ {
			a, b := res[i-1], res[i]
			if a.DistSq > b.DistSq {
				t.Fatalf("query %v: result %d (%g) farther than result %d (%g)",
					q, i-1, a.DistSq, i, b.DistSq)
			}
			if a.DistSq == b.DistSq && a.Index >= b.Index {
				t.Fatalf("query %v: tie at dist %g not broken on ascending index (%d then %d)",
					q, a.DistSq, a.Index, b.Index)
			}
		}
	}
}

// TestSortNeighborsMatchesReference checks the custom introsort against
// sort.SliceStable over the same key for a spread of sizes, covering the
// insertion-sort, quicksort, and (via the adversarial input below)
// heapsort regimes.
func TestSortNeighborsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 3, 12, 13, 64, 257, 1000} {
		s := make([]nn.Neighbor, n)
		for i := range s {
			// Few distinct distances → many ties exercising the index key.
			s[i] = nn.Neighbor{Index: i, DistSq: float64(rng.Intn(5))}
		}
		rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		want := append([]nn.Neighbor(nil), s...)
		sort.SliceStable(want, func(i, j int) bool { return neighborLess(want[i], want[j]) })
		sortNeighbors(s)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("n=%d: element %d = %+v, want %+v", n, i, s[i], want[i])
			}
		}
	}
}

// TestSortNeighborsAdversarial feeds patterns that degrade naive
// quicksorts — sorted, reversed, and all-equal inputs — at a size large
// enough to recurse well past the insertion-sort cutoff.
func TestSortNeighborsAdversarial(t *testing.T) {
	const n = 4096
	mk := func(f func(i int) float64) []nn.Neighbor {
		s := make([]nn.Neighbor, n)
		for i := range s {
			s[i] = nn.Neighbor{Index: i, DistSq: f(i)}
		}
		return s
	}
	cases := map[string][]nn.Neighbor{
		"sorted":   mk(func(i int) float64 { return float64(i) }),
		"reversed": mk(func(i int) float64 { return float64(n - i) }),
		"equal":    mk(func(int) float64 { return 1 }),
	}
	for name, s := range cases {
		sortNeighbors(s)
		for i := 1; i < len(s); i++ {
			if neighborLess(s[i], s[i-1]) {
				t.Fatalf("%s: out of order at %d: %+v after %+v", name, i, s[i], s[i-1])
			}
		}
	}
}
