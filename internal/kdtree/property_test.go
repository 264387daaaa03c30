package kdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/linear"
)

// pointsFromSeed derives a bounded random cloud from quick's fuzz inputs.
func pointsFromSeed(seed int64, nRaw uint16) []geom.Point {
	n := int(nRaw)%2000 + 10
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: rng.Float32()*100 - 50,
			Y: rng.Float32()*100 - 50,
			Z: rng.Float32() * 5,
		}
	}
	return pts
}

// Exact search must agree with brute force for any cloud, any bucket
// size, any k — the central correctness property of the tree.
func TestPropertyExactEqualsBruteForce(t *testing.T) {
	f := func(seed int64, nRaw uint16, bucketRaw uint8, kRaw uint8) bool {
		pts := pointsFromSeed(seed, nRaw)
		bucket := int(bucketRaw)%128 + 4
		k := int(kRaw)%10 + 1
		tree := Build(pts, Config{BucketSize: bucket}, rand.New(rand.NewSource(seed+1)))
		rng := rand.New(rand.NewSource(seed + 2))
		for trial := 0; trial < 5; trial++ {
			q := geom.Point{
				X: rng.Float32()*120 - 60,
				Y: rng.Float32()*120 - 60,
				Z: rng.Float32()*8 - 1,
			}
			want := linear.Search(pts, q, k)
			got, _ := tree.Search(q, Spec{Mode: Exact, K: k})
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i].DistSq != want[i].DistSq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Building any cloud yields a structurally valid tree that holds every
// point exactly once.
func TestPropertyBuildIsValidPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint16, bucketRaw uint8) bool {
		pts := pointsFromSeed(seed, nRaw)
		bucket := int(bucketRaw)%256 + 2
		tree := Build(pts, Config{BucketSize: bucket}, rand.New(rand.NewSource(seed)))
		if tree.Validate() != nil || tree.NumPoints() != len(pts) {
			return false
		}
		seen := make([]bool, len(pts))
		ok := true
		tree.Buckets(func(id int32, _ *Bucket) {
			for _, idx32 := range tree.BucketIndices(id) {
				idx := int(idx32)
				if idx < 0 || idx >= len(pts) || seen[idx] {
					ok = false
					return
				}
				seen[idx] = true
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Rebalancing with any legal bounds preserves validity and every point.
func TestPropertyRebalancePreservesPoints(t *testing.T) {
	f := func(seed int64, nRaw uint16, lowerRaw uint8) bool {
		pts := pointsFromSeed(seed, nRaw)
		tree := Build(pts, Config{BucketSize: 64}, rand.New(rand.NewSource(seed)))
		lower := int(lowerRaw)%30 + 2
		upper := lower*2 + 10
		tree.Rebalance(lower, upper)
		if tree.Validate() != nil || tree.NumPoints() != len(pts) {
			return false
		}
		// No bucket may exceed the upper bound (splitting is always
		// possible unless points coincide, which this cloud avoids).
		s := tree.Stats()
		return s.Max <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The approximate search result is always a subset of the exact result
// distances: its i-th distance is ≥ the exact i-th distance, and when the
// bucket contains the true nearest they coincide at rank 0.
func TestPropertyApproxNeverBeatsExact(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		pts := pointsFromSeed(seed, nRaw)
		tree := Build(pts, Config{BucketSize: 32}, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 3))
		q := geom.Point{X: rng.Float32()*100 - 50, Y: rng.Float32()*100 - 50}
		exact, _ := tree.Search(q, Spec{Mode: Exact, K: 5})
		approx, _ := tree.Search(q, Spec{K: 5})
		for i := range approx {
			if i < len(exact) && approx[i].DistSq < exact[i].DistSq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Radius mode with an infinite-ish radius returns everything, sorted.
func TestPropertyRadiusCompleteness(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		pts := pointsFromSeed(seed, nRaw)
		tree := Build(pts, Config{BucketSize: 32}, rand.New(rand.NewSource(seed)))
		res, _ := tree.Search(geom.Point{}, Spec{Mode: Radius, Radius: 1e6})
		if len(res) != len(pts) {
			return false
		}
		for i := 1; i < len(res); i++ {
			if res[i-1].DistSq > res[i].DistSq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
