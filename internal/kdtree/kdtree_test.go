package kdtree

import (
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/linear"
)

func clusteredPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	// A mix of uniform scatter and dense clusters, like a LiDAR frame.
	clusters := 8
	for len(pts) < n {
		if rng.Intn(3) == 0 {
			pts = append(pts, geom.Point{
				X: rng.Float32()*100 - 50,
				Y: rng.Float32()*100 - 50,
				Z: rng.Float32() * 4,
			})
			continue
		}
		c := rng.Intn(clusters)
		cx := float32(c%4)*25 - 40
		cy := float32(c/4)*30 - 20
		pts = append(pts, geom.Point{
			X: cx + float32(rng.NormFloat64()),
			Y: cy + float32(rng.NormFloat64()),
			Z: float32(rng.NormFloat64()) * 0.5,
		})
	}
	return pts
}

func mustBuild(t *testing.T, pts []geom.Point, cfg Config, seed int64) *Tree {
	t.Helper()
	tree := Build(pts, cfg, rand.New(rand.NewSource(seed)))
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree after build: %v", err)
	}
	return tree
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(nil) should panic")
		}
	}()
	Build(nil, DefaultConfig(), rand.New(rand.NewSource(1)))
}

func TestBuildPlacesEveryPoint(t *testing.T) {
	pts := clusteredPoints(5000, 1)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 2)
	if got := tree.NumPoints(); got != len(pts) {
		t.Fatalf("NumPoints = %d, want %d", got, len(pts))
	}
	// Every original index appears exactly once.
	seen := make([]bool, len(pts))
	tree.Buckets(func(id int32, _ *Bucket) {
		bp, bi := tree.AppendBucketPoints(nil, id), tree.BucketIndices(id)
		for j, idx := range bi {
			if seen[idx] {
				t.Fatalf("index %d placed twice", idx)
			}
			seen[idx] = true
			if bp[j] != pts[idx] {
				t.Fatalf("bucket point %v != original %v", bp[j], pts[idx])
			}
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never placed", i)
		}
	}
}

func TestBuildRespectsRegionInvariant(t *testing.T) {
	// Every bucketed point, traversed from the root, must land back in its
	// own bucket: placement and search use the same side() rule.
	pts := clusteredPoints(3000, 3)
	tree := mustBuild(t, pts, Config{BucketSize: 128}, 4)
	tree.Buckets(func(id int32, _ *Bucket) {
		for _, p := range tree.AppendBucketPoints(nil, id) {
			if _, got, _ := tree.FindLeaf(p); got != id {
				t.Fatalf("point %v placed in bucket %d but FindLeaf returns %d", p, id, got)
			}
		}
	})
}

func TestTreeShapeMatchesConfig(t *testing.T) {
	pts := clusteredPoints(8192, 5)
	tree := mustBuild(t, pts, Config{BucketSize: 256}, 6)
	// N/B_N = 32 leaves → depth 5, N_t = 2·32-1 = 63 nodes for a full tree.
	if d := tree.Depth(); d != 5 {
		t.Errorf("Depth = %d, want 5", d)
	}
	if nb := tree.NumBuckets(); nb != 32 {
		t.Errorf("NumBuckets = %d, want 32", nb)
	}
	if nt := tree.NumNodes(); nt != 63 {
		t.Errorf("NumNodes = %d, want 63", nt)
	}
	if bytes := tree.NodeTableBytes(); bytes != 63*NodeBytes {
		t.Errorf("NodeTableBytes = %d", bytes)
	}
}

func TestSearchExactMatchesLinear(t *testing.T) {
	pts := clusteredPoints(2000, 7)
	tree := mustBuild(t, pts, Config{BucketSize: 32}, 8)
	queries := clusteredPoints(100, 9)
	for _, q := range queries {
		want := linear.Search(pts, q, 5)
		got, _ := tree.SearchExact(q, 5)
		if len(got) != len(want) {
			t.Fatalf("len mismatch: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i].DistSq != want[i].DistSq {
				t.Fatalf("query %v result %d: dist %v vs linear %v", q, i, got[i].DistSq, want[i].DistSq)
			}
		}
	}
}

func TestSearchApproxFindsSelf(t *testing.T) {
	pts := clusteredPoints(1000, 10)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 11)
	for i := 0; i < 50; i++ {
		q := pts[i*17]
		res, stats := tree.SearchApprox(q, 1)
		if len(res) != 1 || res[0].DistSq != 0 {
			t.Fatalf("self search failed for %v: %+v", q, res)
		}
		if stats.BucketsVisited != 1 {
			t.Fatalf("approx search visited %d buckets", stats.BucketsVisited)
		}
		if stats.TraversalSteps == 0 {
			t.Fatal("approx search should traverse internal nodes")
		}
	}
}

func TestSearchApproxAccuracyReasonable(t *testing.T) {
	ref := clusteredPoints(4000, 12)
	queries := clusteredPoints(300, 13)
	tree := mustBuild(t, ref, Config{BucketSize: 256}, 14)
	rep := tree.MeasureAccuracy(ref, queries, 5, 5)
	if rep.Top1Recall < 0.80 {
		t.Errorf("Top1Recall = %.2f, want ≥ 0.80", rep.Top1Recall)
	}
	if rep.TopKRecall < 0.55 {
		t.Errorf("TopKRecall = %.2f, want ≥ 0.55", rep.TopKRecall)
	}
	if rep.Queries != 300 || rep.K != 5 || rep.X != 5 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
}

func TestAccuracyImprovesWithBucketSize(t *testing.T) {
	ref := clusteredPoints(8000, 15)
	queries := clusteredPoints(200, 16)
	small := mustBuild(t, ref, Config{BucketSize: 64}, 17)
	large := mustBuild(t, ref, Config{BucketSize: 1024}, 17)
	rSmall := small.MeasureAccuracy(ref, queries, 5, 0)
	rLarge := large.MeasureAccuracy(ref, queries, 5, 0)
	if rLarge.TopKRecall < rSmall.TopKRecall {
		t.Errorf("accuracy did not improve with bucket size: %v → %v",
			rSmall.TopKRecall, rLarge.TopKRecall)
	}
}

func TestSearchAllApproxStats(t *testing.T) {
	ref := clusteredPoints(2048, 18)
	queries := clusteredPoints(128, 19)
	tree := mustBuild(t, ref, Config{BucketSize: 128}, 20)
	results, stats := tree.SearchAllApprox(queries, 8)
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	if stats.BucketsVisited != len(queries) {
		t.Errorf("BucketsVisited = %d, want %d", stats.BucketsVisited, len(queries))
	}
	if stats.PointsScanned < len(queries) { // ≥1 point per bucket scan
		t.Errorf("PointsScanned = %d suspiciously low", stats.PointsScanned)
	}
	// Approximate scans a bounded region: far less than the linear N·Q.
	if stats.PointsScanned >= len(ref)*len(queries)/4 {
		t.Errorf("approximate search scanned too much: %d", stats.PointsScanned)
	}
}

func TestSearchExactScansLessThanLinearButMoreThanApprox(t *testing.T) {
	ref := clusteredPoints(4096, 21)
	queries := clusteredPoints(64, 22)
	tree := mustBuild(t, ref, Config{BucketSize: 128}, 23)
	_, exact := tree.SearchAllExact(queries, 5)
	_, approx := tree.SearchAllApprox(queries, 5)
	if exact.PointsScanned <= approx.PointsScanned {
		t.Errorf("exact (%d) should scan more than approx (%d)",
			exact.PointsScanned, approx.PointsScanned)
	}
	if exact.PointsScanned >= len(ref)*len(queries) {
		t.Errorf("exact scanned as much as linear: %d", exact.PointsScanned)
	}
}

func TestStaticReuseResetAndPlace(t *testing.T) {
	f1 := clusteredPoints(3000, 24)
	f2 := clusteredPoints(3000, 25)
	tree := mustBuild(t, f1, Config{BucketSize: 128}, 26)
	nodesBefore := tree.NumNodes()
	tree.ResetBuckets()
	if tree.NumPoints() != 0 {
		t.Fatalf("NumPoints after reset = %d", tree.NumPoints())
	}
	tree.Place(f2)
	if tree.NumPoints() != len(f2) {
		t.Fatalf("NumPoints after place = %d", tree.NumPoints())
	}
	if tree.NumNodes() != nodesBefore {
		t.Error("static reuse changed the split structure")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceBoundsBuckets(t *testing.T) {
	f1 := clusteredPoints(4000, 27)
	tree := mustBuild(t, f1, Config{BucketSize: 128}, 28)
	// Shift the cloud so the static splits fit poorly, then rebalance.
	shift := geom.Transform{Translation: geom.Point{X: 20, Y: -15}}
	f2 := shift.ApplyAll(f1)
	tree.ResetBuckets()
	tree.Place(f2)
	pre := tree.Stats()
	res := tree.Rebalance(64, 256)
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree after rebalance: %v", err)
	}
	post := tree.Stats()
	if post.Max > 256 {
		t.Errorf("bucket above upper bound after rebalance: %d", post.Max)
	}
	if tree.NumPoints() != len(f2) {
		t.Errorf("points lost in rebalance: %d of %d", tree.NumPoints(), len(f2))
	}
	if res.Merged+res.Split == 0 && (pre.Max > 256 || pre.Min < 64) {
		t.Error("rebalance did nothing despite out-of-bound buckets")
	}
	// Every point still findable via traversal.
	for i := 0; i < 200; i++ {
		q := f2[i*19%len(f2)]
		got, _ := tree.SearchApprox(q, 1)
		if len(got) == 0 || got[0].DistSq != 0 {
			t.Fatalf("point %v lost after rebalance", q)
		}
	}
}

func TestRebalanceValidatesBounds(t *testing.T) {
	tree := mustBuild(t, clusteredPoints(100, 29), Config{BucketSize: 32}, 30)
	for _, bounds := range [][2]int{{0, 10}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rebalance(%d, %d) should panic", bounds[0], bounds[1])
				}
			}()
			tree.Rebalance(bounds[0], bounds[1])
		}()
	}
}

func TestUpdateFrameKeepsBalanceOverDrift(t *testing.T) {
	// Fig. 10's scenario: successive frames drift; incremental update must
	// keep max/min bucket sizes bounded while a static tree degrades.
	base := clusteredPoints(4000, 31)
	staticTree := mustBuild(t, base, Config{BucketSize: 128}, 32)
	incrTree := mustBuild(t, base, Config{BucketSize: 128}, 32)
	drift := geom.Transform{Yaw: 0.05, Translation: geom.Point{X: 4}}
	frame := base
	var staticMax, incrMax int
	for f := 0; f < 8; f++ {
		frame = drift.ApplyAll(frame)
		staticTree.ResetBuckets()
		staticTree.Place(frame)
		incrTree.UpdateFrame(frame, 0, 0)
		if err := incrTree.Validate(); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if s := staticTree.Stats(); s.Max > staticMax {
			staticMax = s.Max
		}
		if s := incrTree.Stats(); s.Max > incrMax {
			incrMax = s.Max
		}
	}
	incrStats := incrTree.Stats()
	mean := incrStats.Mean
	if float64(incrStats.Max) > 2.6*mean {
		t.Errorf("incremental max bucket %d exceeds ~2× mean %.0f", incrStats.Max, mean)
	}
	if staticMax <= incrMax {
		t.Errorf("static tree (max %d) should degrade more than incremental (max %d)",
			staticMax, incrMax)
	}
}

func TestRebalanceNoOpWhenBalanced(t *testing.T) {
	pts := clusteredPoints(4096, 33)
	tree := mustBuild(t, pts, Config{BucketSize: 128}, 34)
	s := tree.Stats()
	res := tree.Rebalance(1, s.Max+1)
	if res.Merged != 0 || res.Split != 0 {
		t.Errorf("rebalance of balanced tree did work: %+v", res)
	}
}

func TestDegenerateIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 2, Z: 3}
	}
	tree := mustBuild(t, pts, Config{BucketSize: 16}, 35)
	if tree.NumPoints() != 500 {
		t.Fatalf("NumPoints = %d", tree.NumPoints())
	}
	res, _ := tree.SearchApprox(geom.Point{X: 1, Y: 2, Z: 3}, 3)
	if len(res) != 3 || res[0].DistSq != 0 {
		t.Fatalf("search over identical points: %+v", res)
	}
	// Rebalance cannot split identical points; it must not loop or panic.
	tree.Rebalance(8, 32)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePointTree(t *testing.T) {
	tree := mustBuild(t, []geom.Point{{X: 5}}, DefaultConfig(), 36)
	res, _ := tree.SearchExact(geom.Point{}, 3)
	if len(res) != 1 || res[0].Index != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(30000)
	if c.BucketSize != 256 {
		t.Errorf("BucketSize = %d", c.BucketSize)
	}
	// 30000/256 = 117.2 → 118 → depth 7 (128 leaves).
	if c.MaxDepth != 7 {
		t.Errorf("MaxDepth = %d", c.MaxDepth)
	}
	if c.SampleSize <= 0 || c.SampleSize > 30000 {
		t.Errorf("SampleSize = %d", c.SampleSize)
	}
	if c.MinSamplePoints != 4 {
		t.Errorf("MinSamplePoints = %d", c.MinSamplePoints)
	}
}

func TestBucketByIDStale(t *testing.T) {
	tree := mustBuild(t, clusteredPoints(100, 37), Config{BucketSize: 32}, 38)
	if tree.BucketByID(-1) != nil || tree.BucketByID(9999) != nil {
		t.Error("out-of-range bucket ids should return nil")
	}
}

func TestStatsEmptyTreeSafe(t *testing.T) {
	var tree Tree
	s := tree.Stats()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestFindLeafBitsConsistentWithFindLeaf(t *testing.T) {
	pts := clusteredPoints(2000, 40)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 41)
	for i := 0; i < 100; i++ {
		p := pts[i*13]
		_, wantBucket, wantDepth := tree.FindLeaf(p)
		bucket, bits, depth := tree.FindLeafBits(p)
		if bucket != wantBucket || depth != wantDepth {
			t.Fatalf("FindLeafBits disagrees with FindLeaf for %v", p)
		}
		// Replaying the bits from the root must reach the same bucket.
		idx := tree.root
		for l := depth - 1; l >= 0; l-- {
			nd := tree.nodes[idx]
			if (bits>>uint(l))&1 == 1 {
				idx = nd.Right
			} else {
				idx = nd.Left
			}
		}
		if got := tree.nodes[idx].Bucket; got != bucket {
			t.Fatalf("bit replay reached bucket %d, want %d", got, bucket)
		}
	}
}

func TestBuildStructureThenInsertMatchesBuild(t *testing.T) {
	pts := clusteredPoints(1500, 42)
	seed := int64(43)
	whole := mustBuild(t, pts, Config{BucketSize: 64}, seed)
	structure := BuildStructure(pts, Config{BucketSize: 64}, rand.New(rand.NewSource(seed)))
	if structure.NumPoints() != 0 {
		t.Fatal("BuildStructure placed points")
	}
	for i, p := range pts {
		structure.Insert(p, i)
	}
	if err := structure.Validate(); err != nil {
		t.Fatal(err)
	}
	if structure.NumNodes() != whole.NumNodes() || structure.NumPoints() != whole.NumPoints() {
		t.Fatalf("structure+insert differs from Build: %d/%d nodes, %d/%d points",
			structure.NumNodes(), whole.NumNodes(), structure.NumPoints(), whole.NumPoints())
	}
	// Same query → same bucket contents.
	for i := 0; i < 50; i++ {
		q := pts[i*29]
		a, _ := whole.SearchApprox(q, 3)
		b, _ := structure.SearchApprox(q, 3)
		if len(a) != len(b) {
			t.Fatal("result length mismatch")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("results differ between Build and BuildStructure+Insert")
			}
		}
	}
}

func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	pts := clusteredPoints(3000, 50)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 51)
	queries := clusteredPoints(40, 52)
	for _, q := range queries {
		for _, radius := range []float64{0.5, 2, 8} {
			got, _ := tree.SearchRadius(q, radius)
			want := 0
			r2 := radius * radius
			for _, p := range pts {
				if q.DistSq(p) <= r2 {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("radius %v: got %d results, want %d", radius, len(got), want)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].DistSq > got[i].DistSq {
					t.Fatal("radius results not sorted")
				}
			}
			for _, r := range got {
				if r.DistSq > r2 {
					t.Fatalf("result outside radius: %v > %v", r.DistSq, r2)
				}
			}
		}
	}
}

func TestSearchRadiusPrunes(t *testing.T) {
	pts := clusteredPoints(4096, 53)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 54)
	_, stats := tree.SearchRadius(pts[0], 1)
	if stats.PointsScanned >= len(pts)/2 {
		t.Errorf("small-radius search scanned %d of %d points", stats.PointsScanned, len(pts))
	}
}

// TestSearchExactBucketsMatchesExact checks that SearchExactBuckets
// returns SearchExact's neighbors with the plane rule's visit list and
// stats: the list matches the stats, never repeats a bucket, and holds
// every bucket the tight rule scans and more.
func TestSearchExactBucketsMatchesExact(t *testing.T) {
	pts := clusteredPoints(2000, 55)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 56)
	queries := clusteredPoints(50, 57)
	for _, q := range queries {
		wantRes, tightStats := tree.SearchExact(q, 5)
		_, wantStats := refSearchExact(tree, q, 5)
		gotRes, buckets, gotStats := tree.SearchExactBuckets(q, 5)
		if len(gotRes) != len(wantRes) {
			t.Fatal("result length mismatch")
		}
		for i := range wantRes {
			if gotRes[i] != wantRes[i] {
				t.Fatal("results differ from SearchExact")
			}
		}
		if gotStats != wantStats {
			t.Fatalf("stats differ from the plane rule: %+v vs %+v", gotStats, wantStats)
		}
		if tightStats.BucketsVisited > gotStats.BucketsVisited || tightStats.PointsScanned > gotStats.PointsScanned {
			t.Fatalf("tight rule did more work than the plane rule: %+v vs %+v", tightStats, gotStats)
		}
		if len(buckets) != gotStats.BucketsVisited {
			t.Fatalf("bucket trace %d entries, stats say %d", len(buckets), gotStats.BucketsVisited)
		}
		seen := map[int32]bool{}
		for _, b := range buckets {
			if seen[b] {
				t.Fatal("bucket visited twice")
			}
			seen[b] = true
			if tree.BucketByID(b) == nil {
				t.Fatal("trace references dead bucket")
			}
		}
	}
}

func TestSearchChecksInterpolatesAccuracy(t *testing.T) {
	ref := clusteredPoints(6000, 60)
	tree := mustBuild(t, ref, Config{BucketSize: 64}, 61)
	queries := clusteredPoints(200, 62)
	recall := func(checks int) float64 {
		hits := 0
		for _, q := range queries {
			exact := linear.Search(ref, q, 1)
			res, _ := tree.SearchChecks(q, 1, checks)
			if len(res) > 0 && res[0].Index == exact[0].Index {
				hits++
			}
		}
		return float64(hits) / float64(len(queries))
	}
	r0 := recall(0)
	r512 := recall(512)
	rAll := recall(len(ref))
	if !(r0 <= r512 && r512 <= rAll) {
		t.Errorf("recall not monotone in checks: %.2f, %.2f, %.2f", r0, r512, rAll)
	}
	if rAll < 0.999 {
		t.Errorf("checks=N should be exact, got recall %.3f", rAll)
	}
}

func TestSearchChecksZeroEqualsApprox(t *testing.T) {
	ref := clusteredPoints(3000, 63)
	tree := mustBuild(t, ref, Config{BucketSize: 128}, 64)
	for i := 0; i < 50; i++ {
		q := clusteredPoints(1, int64(65+i))[0]
		a, aStats := tree.SearchApprox(q, 5)
		c, cStats := tree.SearchChecks(q, 5, 0)
		if cStats.BucketsVisited != 1 || cStats.PointsScanned != aStats.PointsScanned {
			t.Fatalf("checks=0 should scan exactly the primary bucket: %+v vs %+v", cStats, aStats)
		}
		if len(a) != len(c) {
			t.Fatal("result length mismatch")
		}
		for j := range a {
			if a[j] != c[j] {
				t.Fatal("checks=0 results differ from SearchApprox")
			}
		}
	}
}

func TestSearchChecksBudgetRespected(t *testing.T) {
	ref := clusteredPoints(8000, 66)
	tree := mustBuild(t, ref, Config{BucketSize: 128}, 67)
	_, stats := tree.SearchChecks(geom.Point{X: 1, Y: 2}, 5, 500)
	// One bucket of overshoot is allowed (the budget is checked between
	// bucket visits), never more.
	if stats.PointsScanned > 500+2*128 {
		t.Errorf("scanned %d points against a 500 budget", stats.PointsScanned)
	}
}
