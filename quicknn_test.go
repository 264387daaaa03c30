package quicknn

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mustIndex builds an index over pts or fails the test.
func mustIndex(tb testing.TB, pts []Point, opts ...Option) *Index {
	tb.Helper()
	ix, err := BuildIndex(pts, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// mustQuery runs one Query or fails the test.
func mustQuery(tb testing.TB, ix *Index, q Point, opts QueryOptions) []Neighbor {
	tb.Helper()
	res, err := ix.Query(context.Background(), q, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mustQueryBatch runs one QueryBatch or fails the test.
func mustQueryBatch(tb testing.TB, ix *Index, queries []Point, opts QueryOptions) [][]Neighbor {
	tb.Helper()
	res, err := ix.QueryBatch(context.Background(), queries, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestIndexSearchFindsSelf(t *testing.T) {
	ref, _ := SuccessiveFrames(3000, 1)
	ix := mustIndex(t, ref)
	if ix.Len() != 3000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i := 0; i < 50; i++ {
		q := ref[i*59]
		res := mustQuery(t, ix, q, QueryOptions{K: 1})
		if len(res) != 1 || res[0].DistSq != 0 {
			t.Fatalf("self search failed: %+v", res)
		}
	}
}

func TestIndexExactMatchesBruteForce(t *testing.T) {
	ref, qry := SuccessiveFrames(2000, 2)
	ix := mustIndex(t, ref, WithBucketSize(64))
	for i := 0; i < 40; i++ {
		q := qry[i*37]
		want := BruteForce(ref, q, 5)
		got := mustQuery(t, ix, q, QueryOptions{K: 5, Mode: ModeExact})
		if len(got) != len(want) {
			t.Fatalf("lengths differ")
		}
		for j := range want {
			if got[j].DistSq != want[j].DistSq {
				t.Fatalf("exact search mismatch at query %d", i)
			}
		}
	}
}

func TestIndexOptionsAffectBuild(t *testing.T) {
	ref, _ := SuccessiveFrames(4000, 3)
	small := mustIndex(t, ref, WithBucketSize(64), WithSeed(7))
	large := mustIndex(t, ref, WithBucketSize(1024), WithSeed(7))
	if small.Stats().Mean >= large.Stats().Mean {
		t.Error("bucket size option had no effect")
	}
}

func TestIndexUpdateModes(t *testing.T) {
	frames := SyntheticFrames(3000, 3, 4)
	incr := mustIndex(t, frames[0])
	static := mustIndex(t, frames[0])
	for _, f := range frames[1:] {
		if err := incr.Update(f); err != nil {
			t.Fatal(err)
		}
		if err := static.UpdateStatic(f); err != nil {
			t.Fatal(err)
		}
	}
	if incr.Len() != 3000 || static.Len() != 3000 {
		t.Fatalf("lengths after update: %d, %d", incr.Len(), static.Len())
	}
	// Both must still answer queries correctly over the latest frame.
	last := frames[len(frames)-1]
	for i := 0; i < 30; i++ {
		q := last[i*83]
		if res := mustQuery(t, incr, q, QueryOptions{K: 1}); len(res) == 0 || res[0].DistSq != 0 {
			t.Fatal("incremental index lost a point")
		}
		if res := mustQuery(t, static, q, QueryOptions{K: 1}); len(res) == 0 || res[0].DistSq != 0 {
			t.Fatal("static index lost a point")
		}
	}
}

func TestAccuracyReportSane(t *testing.T) {
	ref, qry := SuccessiveFrames(4000, 5)
	ix := mustIndex(t, ref)
	rep := ix.Accuracy(qry[:200], 5, 5)
	if rep.TopKRecall < 0.5 || rep.TopKRecall > 1 {
		t.Errorf("TopKRecall = %v", rep.TopKRecall)
	}
	if rep.Top1Recall < rep.TopKRecall {
		t.Error("top-1 recall cannot be below top-k-in-top-(k+x) recall")
	}
}

func TestBruteForceAllMatchesSingle(t *testing.T) {
	ref, qry := SuccessiveFrames(1000, 6)
	all := BruteForceAll(ref, qry[:50], 3)
	for i := 0; i < 50; i++ {
		want := BruteForce(ref, qry[i], 3)
		for j := range want {
			if all[i][j] != want[j] {
				t.Fatalf("mismatch at query %d", i)
			}
		}
	}
}

func TestSyntheticFramesShape(t *testing.T) {
	frames := SyntheticFrames(2500, 3, 7, WithEgoSpeed(5), WithFrameRate(10))
	if len(frames) != 3 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, f := range frames {
		if len(f) != 2500 {
			t.Fatalf("frame size = %d", len(f))
		}
	}
}

func TestSimulateAcceleratorFacade(t *testing.T) {
	prev, cur := SuccessiveFrames(5000, 8)
	rep := SimulateAccelerator(prev, cur, SimConfig{FUs: 32, K: 8}, 9)
	if rep.Cycles <= 0 || rep.FPS <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	lin := SimulateLinear(prev, cur, LinearSimConfig{FUs: 32, K: 8})
	if lin.Cycles <= rep.Cycles {
		t.Errorf("linear (%d) should be slower than QuickNN (%d)", lin.Cycles, rep.Cycles)
	}
	if s := CyclesToSeconds(100_000_000); s != 1 {
		t.Errorf("CyclesToSeconds = %v", s)
	}
}

func TestEstimateMotionRecoversTransform(t *testing.T) {
	// Distinct blobs, not a street scene: long walls make translation
	// along the corridor unobservable for point-to-point ICP (the
	// aperture problem), which is a property of the scene, not a bug.
	rng := newTestRand(10)
	ref := make([]Point, 6000)
	for i := range ref {
		c := i % 12
		ref[i] = Point{
			X: float32(c%4)*18 - 27 + float32(rng.NormFloat64()),
			Y: float32(c/4)*16 - 16 + float32(rng.NormFloat64()),
			Z: float32(rng.NormFloat64()) * 0.4,
		}
	}
	truth := Transform{Yaw: 0.02, Translation: Point{X: 0.8, Y: -0.15}}
	// Query frame = reference moved by the ego motion; aligning it back
	// should recover the inverse.
	query := truth.ApplyAll(ref)
	ix := mustIndex(t, ref)
	res := EstimateMotion(ix, query, ICPConfig{Iterations: 30, Subsample: 2})
	inv := truth.Inverse()
	if math.Abs(res.Motion.Yaw-inv.Yaw) > 0.005 {
		t.Errorf("yaw = %v, want %v", res.Motion.Yaw, inv.Yaw)
	}
	dt := res.Motion.Translation.Sub(inv.Translation)
	if dt.Norm() > 0.1 {
		t.Errorf("translation = %v, want %v", res.Motion.Translation, inv.Translation)
	}
	if res.RMSE > 0.2 {
		t.Errorf("RMSE = %v", res.RMSE)
	}
	if res.Pairs == 0 || res.Iterations == 0 {
		t.Errorf("result metadata empty: %+v", res)
	}
}

func TestEstimateMotionIdentityForSameFrame(t *testing.T) {
	ref, _ := SuccessiveFrames(3000, 11)
	ix := mustIndex(t, ref)
	res := EstimateMotion(ix, ref, ICPConfig{Iterations: 5})
	if math.Abs(res.Motion.Yaw) > 1e-4 || res.Motion.Translation.Norm() > 1e-3 {
		t.Errorf("same-frame motion should be ~identity: %+v", res.Motion)
	}
}

func TestSimulateDriveFacade(t *testing.T) {
	frames := SyntheticFrames(4000, 3, 13)
	rep := SimulateDrive(frames, SimConfig{FUs: 32, K: 8}, 1)
	if len(rep.Rounds) != 2 || rep.MeanFPS <= 0 {
		t.Fatalf("drive report: %d rounds, %.1f FPS", len(rep.Rounds), rep.MeanFPS)
	}
	hbm := SimulateDriveHBM(frames, SimConfig{FUs: 32, K: 8}, 1)
	if hbm.TotalCycles >= rep.TotalCycles {
		t.Errorf("HBM (%d cycles) should beat DDR4 (%d)", hbm.TotalCycles, rep.TotalCycles)
	}
}

func TestSearchChecksFacade(t *testing.T) {
	ref, qry := SuccessiveFrames(4000, 41)
	ix := mustIndex(t, ref, WithBucketSize(64))
	hits0, hitsBig := 0, 0
	for i := 0; i < 100; i++ {
		q := qry[i*31%len(qry)]
		exact := BruteForce(ref, q, 1)
		if res := mustQuery(t, ix, q, QueryOptions{K: 1, Mode: ModeChecks, Checks: 0}); len(res) > 0 && res[0].Index == exact[0].Index {
			hits0++
		}
		if res := mustQuery(t, ix, q, QueryOptions{K: 1, Mode: ModeChecks, Checks: 2000}); len(res) > 0 && res[0].Index == exact[0].Index {
			hitsBig++
		}
	}
	if hitsBig < hits0 {
		t.Errorf("larger check budget lowered recall: %d vs %d", hitsBig, hits0)
	}
	if hitsBig < 95 {
		t.Errorf("checks=2000 of 4000 points should be near-exact: %d/100", hitsBig)
	}
}
