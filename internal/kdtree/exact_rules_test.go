package kdtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/lidar"
	"github.com/quicknn/quicknn/internal/nn"
)

// The two exact-search rules of searchExactCore — the tight rule behind
// Exact-mode Search/SearchInto, SearchBatch(Exact) and everything layered on them,
// and the plane rule behind SearchExactBuckets — must return
// byte-identical neighbors on every tree and every query; only the work
// differs. These tests build trees through every mutating path on
// simulated LiDAR drives and on adversarial clouds, validate each one
// (which checks every bucket box against its span), and compare the
// tight rule's batches at every worker count with the plane rule, query
// by query.

// rulesDrive returns three successive frames of a reduced-resolution
// simulated drive (about 8k ground-removed points a frame).
func rulesDrive(seed int64) [][]geom.Point {
	cfg := lidar.DefaultSequenceConfig()
	cfg.Frames = 3
	cfg.Seed = seed
	cfg.Sensor.Channels = 32
	cfg.Sensor.AzimuthSteps = 500
	var frames [][]geom.Point
	for _, f := range lidar.Sequence(cfg) {
		frames = append(frames, f.Points)
	}
	return frames
}

// mutatedTrees builds trees over f0 and f1 through every mutating path:
// Build, BuildStructure+Place, BuildStructure+Insert, UpdateFrame,
// ResetBuckets+Place+Rebalance, ResetBuckets alone and followed by
// Place, CompactArena, Clone, and a WriteTo/ReadFrom round trip. Each
// tree must pass Validate.
func mutatedTrees(t *testing.T, f0, f1 []geom.Point, cfg Config) map[string]*Tree {
	t.Helper()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	trees := map[string]*Tree{}
	trees["build"] = Build(f0, cfg, rng())
	place := BuildStructure(f0, cfg, rng())
	place.Place(f0)
	trees["place"] = place
	insert := BuildStructure(f0, cfg, rng())
	for i, p := range f0 {
		insert.Insert(p, i)
	}
	trees["insert"] = insert
	update := trees["build"].Clone()
	update.UpdateFrame(f1, 0, 0)
	trees["update"] = update
	rebalance := trees["build"].Clone()
	rebalance.ResetBuckets()
	rebalance.Place(f1)
	rebalance.Rebalance(max(cfg.BucketSize/4, 1), cfg.BucketSize)
	trees["rebalance"] = rebalance
	empty := update.Clone()
	empty.ResetBuckets()
	trees["reset"] = empty
	refill := empty.Clone()
	refill.Place(f0)
	trees["reset+place"] = refill
	compact := rebalance.Clone()
	compact.CompactArena()
	trees["compact"] = compact
	var buf bytes.Buffer
	if _, err := update.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	trees["loaded"] = loaded
	for name, tree := range trees {
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s tree invalid: %v", name, err)
		}
	}
	return trees
}

// edgeQueries returns queries that sit exactly on the tree's split
// planes and on its bucket boxes' faces and corners, taking the other
// coordinates from base points.
func edgeQueries(tree *Tree, base []geom.Point) []geom.Point {
	var qs []geom.Point
	i := 0
	next := func() geom.Point {
		p := base[i%len(base)]
		i++
		return p
	}
	for _, nd := range tree.nodes {
		if nd.Leaf() || nd.Left == nilIdx {
			continue
		}
		p := next()
		switch nd.Axis {
		case geom.AxisX:
			p.X = nd.Threshold
		case geom.AxisY:
			p.Y = nd.Threshold
		default:
			p.Z = nd.Threshold
		}
		qs = append(qs, p)
	}
	for b := range tree.buckets {
		if !tree.buckets[b].live || tree.buckets[b].n == 0 {
			continue
		}
		bx := tree.boxes[b]
		p := next()
		qs = append(qs,
			geom.Point{X: float32(bx[0]), Y: p.Y, Z: p.Z},
			geom.Point{X: p.X, Y: float32(bx[4]), Z: p.Z},
			geom.Point{X: float32(bx[3]), Y: float32(bx[4]), Z: float32(bx[5])},
			geom.Point{X: float32(bx[0]), Y: float32(bx[1]), Z: float32(bx[2])})
	}
	return qs
}

// requireRulesAgree runs queries at each k through the plane rule
// (SearchExactBuckets, one query at a time), the tight rule one query
// at a time (SearchInto), and the tight rule batched at every
// worker count (SearchBatch), and fails unless every answer is
// byte-identical. The tight rule must not do more work than the plane
// rule, and on the first queries its stats must equal the tight-rule
// oracle's.
func requireRulesAgree(t *testing.T, label string, tree *Tree, queries []geom.Point) {
	t.Helper()
	s := NewScratch()
	for _, k := range []int{1, 8, 16} {
		plane := make([][]nn.Neighbor, len(queries))
		var planeStats, tightStats SearchStats
		for qi, q := range queries {
			var st SearchStats
			plane[qi], _, st = tree.SearchExactBuckets(q, k)
			planeStats.Add(st)
			got, gotStats, _ := tree.SearchInto(q, Spec{Mode: Exact, K: k}, s, nil, nil)
			diffNeighbors(t, fmt.Sprintf("%s/k%d/query%d/single", label, k, qi), got, plane[qi], SearchStats{}, SearchStats{})
			tightStats.Add(gotStats)
			if qi < 24 {
				want, wantStats := refSearchExactTight(tree, q, k)
				diffNeighbors(t, fmt.Sprintf("%s/k%d/query%d/oracle", label, k, qi), got, want, gotStats, wantStats)
			}
		}
		if tightStats.PointsScanned > planeStats.PointsScanned || tightStats.BucketsVisited > planeStats.BucketsVisited {
			t.Fatalf("%s/k%d: tight rule scanned %+v, more than the plane rule's %+v", label, k, tightStats, planeStats)
		}
		for _, workers := range ingestWorkerCounts {
			out := batchRegions(len(queries), k)
			stats, _, _ := tree.SearchBatch(queries, Spec{Mode: Exact, K: k}, workers, out, nil)
			for qi := range queries {
				diffNeighbors(t, fmt.Sprintf("%s/k%d/workers%d/query%d", label, k, workers, qi), out[qi], plane[qi], SearchStats{}, SearchStats{})
			}
			if stats != tightStats {
				t.Fatalf("%s/k%d/workers%d: batch stats %+v, want the per-query sum %+v", label, k, workers, stats, tightStats)
			}
		}
	}
}

// everyNth returns about n points of pts, evenly spaced.
func everyNth(pts []geom.Point, n int) []geom.Point {
	step := max(len(pts)/n, 1)
	var out []geom.Point
	for i := 0; i < len(pts); i += step {
		out = append(out, pts[i])
	}
	return out
}

func TestExactRulesAgreeOnDrives(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 24, 25} {
		frames := rulesDrive(seed)
		cfg := Config{BucketSize: 64, Parallelism: 4}
		for name, tree := range mutatedTrees(t, frames[0], frames[1], cfg) {
			queries := everyNth(frames[2], 150)
			queries = append(queries, everyNth(edgeQueries(tree, frames[2]), 100)...)
			requireRulesAgree(t, fmt.Sprintf("seed%d/%s", seed, name), tree, queries)
		}
	}
}

// TestExactRulesAgreeOnAdversarialClouds covers the bounds' edge cases:
// duplicate points (a k-th distance of zero), lattice clouds whose
// queries tie at exactly the k-th distance, queries on split planes and
// box faces, and a bucket holding a single point.
func TestExactRulesAgreeOnAdversarialClouds(t *testing.T) {
	var lattice []geom.Point
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			for z := 0; z < 4; z++ {
				p := geom.Point{X: float32(x), Y: float32(y), Z: float32(z)}
				lattice = append(lattice, p, p) // every lattice point twice
			}
		}
	}
	var latticeQueries []geom.Point
	for x := -1; x <= 32; x += 3 {
		for y := -1; y <= 32; y += 5 {
			latticeQueries = append(latticeQueries,
				geom.Point{X: float32(x) / 2, Y: float32(y) / 2, Z: 1.5},
				geom.Point{X: float32(x) / 2, Y: float32(y) / 2, Z: 0})
		}
	}

	dup := clusteredPoints(1500, 90)
	hot := dup[17]
	for i := 0; i < 600; i++ {
		dup = append(dup, hot)
	}
	dupQueries := append([]geom.Point{hot, hot, {X: hot.X + 0.5, Y: hot.Y, Z: hot.Z}}, everyNth(clusteredPoints(800, 91), 60)...)

	// A tree whose bucket b holds exactly one point: refill the built
	// structure with every point but all-but-one of b's.
	cloud := clusteredPoints(3000, 92)
	single := mustBuild(t, cloud, Config{BucketSize: 32}, 93)
	var b int32 = -1
	single.Buckets(func(id int32, bk *Bucket) {
		if b < 0 && bk.Len() > 4 {
			b = id
		}
	})
	drop := map[int32]bool{}
	for _, ref := range single.BucketIndices(b)[1:] {
		drop[ref] = true
	}
	var kept []geom.Point
	for i, p := range cloud {
		if !drop[int32(i)] {
			kept = append(kept, p)
		}
	}
	lone := single.AppendBucketPoints(nil, b)[0]
	single.ResetBuckets()
	single.Place(kept)
	if n := single.BucketByID(b).Len(); n != 1 {
		t.Fatalf("bucket %d holds %d points, want 1", b, n)
	}
	singleQueries := append([]geom.Point{lone, {X: lone.X + 0.25, Y: lone.Y - 0.25, Z: lone.Z}}, everyNth(clusteredPoints(500, 94), 80)...)

	for _, c := range []struct {
		name    string
		tree    *Tree
		queries []geom.Point
	}{
		{"lattice", mustBuild(t, lattice, Config{BucketSize: 16, Parallelism: 3}, 95), latticeQueries},
		{"duplicates", mustBuild(t, dup, Config{BucketSize: 32, Parallelism: 2}, 96), dupQueries},
		{"single-point-bucket", single, singleQueries},
	} {
		if err := c.tree.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		queries := append(c.queries, everyNth(edgeQueries(c.tree, c.queries), 200)...)
		requireRulesAgree(t, c.name, c.tree, queries)
	}
}
