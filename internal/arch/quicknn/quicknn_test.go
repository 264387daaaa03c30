package quicknn

import (
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/arch/lineararch"
	"github.com/quicknn/quicknn/internal/dram"
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/kdtree"
)

// framePair returns two successive LiDAR-like frames: clustered points
// plus a small rigid shift between frames.
func framePair(n int, seed int64) (prev, cur []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]geom.Point, 0, n)
	for len(prev) < n {
		if rng.Intn(3) == 0 {
			prev = append(prev, geom.Point{
				X: rng.Float32()*100 - 50, Y: rng.Float32()*100 - 50, Z: rng.Float32() * 4,
			})
			continue
		}
		c := rng.Intn(10)
		prev = append(prev, geom.Point{
			X: float32(c%5)*20 - 40 + float32(rng.NormFloat64()),
			Y: float32(c/5)*30 - 15 + float32(rng.NormFloat64()),
			Z: float32(rng.NormFloat64()) * 0.5,
		})
	}
	shift := geom.Transform{Yaw: 0.01, Translation: geom.Point{X: 0.8}}
	return prev, shift.ApplyAll(prev)
}

func prevTreeFor(t testing.TB, pts []geom.Point, bucket int) *kdtree.Tree {
	t.Helper()
	return kdtree.Build(pts, kdtree.Config{BucketSize: bucket}, rand.New(rand.NewSource(99)))
}

func run(t testing.TB, n int, cfg Config) Report {
	t.Helper()
	prev, cur := framePair(n, 7)
	bucket := cfg.BucketSize
	if bucket == 0 {
		bucket = 256
	}
	tree := prevTreeFor(t, prev, bucket)
	return SimulateFrame(tree, cur, cfg, checkedProto(), 5)
}

func TestResultsMatchSoftwareApproxSearch(t *testing.T) {
	prev, cur := framePair(3000, 1)
	tree := prevTreeFor(t, prev, 128)
	cfg := Config{FUs: 16, K: 4, BucketSize: 128, ComputeResults: true}
	rep := SimulateFrame(tree, cur, cfg, checkedProto(), 2)
	if len(rep.Results) != len(cur) {
		t.Fatalf("results = %d", len(rep.Results))
	}
	for qi, q := range cur {
		want, _ := tree.Search(q, kdtree.Spec{K: 4})
		got := rep.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestAllPointsPlaced(t *testing.T) {
	rep := run(t, 4000, Config{FUs: 32})
	if rep.Tree.NumPoints() != 4000 {
		t.Errorf("placed %d of 4000 points", rep.Tree.NumPoints())
	}
	if err := rep.Tree.Validate(); err != nil {
		t.Error(err)
	}
	if rep.BlocksUsed == 0 {
		t.Error("no bucket blocks allocated")
	}
}

func TestHeadlineOperatingPoint(t *testing.T) {
	// §6.3: 64-FU QuickNN at 30k points measures 908k cycles/frame
	// (110 FPS) — the model should land in the same regime.
	if testing.Short() {
		t.Skip("30k frame in -short mode")
	}
	rep := run(t, 30000, Config{FUs: 64, K: 8})
	if rep.Cycles < 400_000 || rep.Cycles > 2_500_000 {
		t.Errorf("cycles/frame = %d, want ≈ 908k (paper)", rep.Cycles)
	}
	if rep.FPS < 40 || rep.FPS > 250 {
		t.Errorf("FPS = %.1f, want ≈ 110", rep.FPS)
	}
	// Rd2 must be fully eliminated by snooping.
	if rd2 := rep.Mem.Streams[dram.StreamRd2].UsefulBytes; rd2 != 0 {
		t.Errorf("Rd2 bytes = %d, want 0 (stream merge)", rd2)
	}
}

func TestSpeedupOverLinearArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("large frames in -short mode")
	}
	prev, cur := framePair(30000, 3)
	tree := prevTreeFor(t, prev, 256)
	q := SimulateFrame(tree, cur, Config{FUs: 64, K: 8}, checkedProto(), 4)
	l := lineararch.Simulate(prev, cur, lineararch.Config{FUs: 64, K: 8},
		checkedProto())
	speedup := float64(l.Cycles) / float64(q.Cycles)
	// Paper: 24.1×. Accept the right regime.
	if speedup < 10 || speedup > 60 {
		t.Errorf("QuickNN speedup over linear = %.1f×, want ≈ 24×", speedup)
	}
	// Fig. 12: QuickNN cuts external memory traffic by ~36×.
	memRatio := float64(l.Mem.TotalBurstBytes()) / float64(q.Mem.TotalBurstBytes())
	if memRatio < 10 {
		t.Errorf("memory traffic ratio = %.1f×, want ≫ 10×", memRatio)
	}
}

func TestFUScalingDiminishes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	var fps []float64
	for _, fus := range []int{16, 64, 128} {
		rep := run(t, 10000, Config{FUs: fus, K: 8})
		fps = append(fps, rep.FPS)
	}
	if !(fps[0] < fps[1] && fps[1] < fps[2]) {
		t.Fatalf("FPS not increasing with FUs: %v", fps)
	}
	gain16to64 := fps[1] / fps[0]
	gain64to128 := fps[2] / fps[1]
	if gain64to128 >= gain16to64 {
		t.Errorf("returns should diminish: 16→64 %.2f×, 64→128 %.2f×", gain16to64, gain64to128)
	}
}

func TestLatencyScalesNearLinearlyWithFrameSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	small := run(t, 10000, Config{FUs: 64})
	big := run(t, 30000, Config{FUs: 64})
	ratio := float64(big.Cycles) / float64(small.Cycles)
	// Fig. 15: latency is dominated by O(N) memory streams, not
	// O(N log N) compute: 3× the points ⇒ ~3× the cycles (not 9×).
	if ratio < 2.0 || ratio > 5.0 {
		t.Errorf("30k/10k cycle ratio = %.2f, want ≈ 3", ratio)
	}
}

func TestKScalingMinor(t *testing.T) {
	k1 := run(t, 8000, Config{FUs: 64, K: 1})
	k32 := run(t, 8000, Config{FUs: 64, K: 32})
	if k32.Cycles <= k1.Cycles {
		t.Errorf("k=32 (%d) should cost more than k=1 (%d)", k32.Cycles, k1.Cycles)
	}
	// Fig. 14: the overhead is minor (result write-back only).
	if ratio := float64(k32.Cycles) / float64(k1.Cycles); ratio > 2.5 {
		t.Errorf("k=32/k=1 ratio = %.2f, want modest", ratio)
	}
}

func TestAblationWriteGather(t *testing.T) {
	on := run(t, 8000, Config{FUs: 64})
	off := run(t, 8000, Config{FUs: 64, DisableWriteGather: true})
	if off.Mem.Streams[dram.StreamWr1].BurstBytes <= on.Mem.Streams[dram.StreamWr1].BurstBytes {
		t.Errorf("write-gather should cut Wr1 burst traffic: on=%d off=%d",
			on.Mem.Streams[dram.StreamWr1].BurstBytes, off.Mem.Streams[dram.StreamWr1].BurstBytes)
	}
	if on.WriteGather.Flushes == 0 {
		t.Error("write-gather stats empty")
	}
	if off.Cycles <= on.Cycles {
		t.Errorf("disabling write-gather should cost cycles: on=%d off=%d", on.Cycles, off.Cycles)
	}
}

func TestAblationReadGather(t *testing.T) {
	on := run(t, 8000, Config{FUs: 64})
	off := run(t, 8000, Config{FUs: 64, DisableReadGather: true})
	if off.Mem.Streams[dram.StreamRd3].BurstBytes <= on.Mem.Streams[dram.StreamRd3].BurstBytes {
		t.Errorf("read-gather should cut Rd3 traffic: on=%d off=%d",
			on.Mem.Streams[dram.StreamRd3].BurstBytes, off.Mem.Streams[dram.StreamRd3].BurstBytes)
	}
	if off.Cycles <= on.Cycles {
		t.Errorf("disabling read-gather should cost cycles: on=%d off=%d", on.Cycles, off.Cycles)
	}
}

func TestAblationStreamMerge(t *testing.T) {
	on := run(t, 8000, Config{FUs: 64})
	off := run(t, 8000, Config{FUs: 64, DisableStreamMerge: true})
	if on.Mem.Streams[dram.StreamRd2].UsefulBytes != 0 {
		t.Error("merged streams should have zero Rd2 traffic")
	}
	if off.Mem.Streams[dram.StreamRd2].UsefulBytes == 0 {
		t.Error("unmerged streams should read queries on Rd2")
	}
}

func TestAblationTreeInDRAM(t *testing.T) {
	on := run(t, 8000, Config{FUs: 64})
	off := run(t, 8000, Config{FUs: 64, TreeInDRAM: true})
	if off.Cycles <= on.Cycles {
		t.Errorf("tree-in-DRAM should be slower: cached=%d dram=%d", on.Cycles, off.Cycles)
	}
	if off.Mem.TotalAccesses() <= on.Mem.TotalAccesses() {
		t.Error("tree-in-DRAM should add node accesses")
	}
}

func TestTreeModes(t *testing.T) {
	prev, _ := framePair(8000, 9)
	// A large shift forces bucket imbalance so the incremental mode has
	// real rebalancing to do.
	cur := (geom.Transform{Yaw: 0.15, Translation: geom.Point{X: 15, Y: -8}}).ApplyAll(prev)
	tree := prevTreeFor(t, prev, 256)
	mk := func(mode TreeMode) Report {
		return SimulateFrame(tree, cur, Config{FUs: 64, Mode: mode},
			checkedProto(), 5)
	}
	rebuild := mk(ModeRebuild)
	static := mk(ModeStatic)
	incr := mk(ModeIncremental)
	if rebuild.SortCycles == 0 {
		t.Error("rebuild mode should use the sorter")
	}
	if static.SortCycles != 0 || incr.SortCycles != 0 {
		t.Error("static/incremental modes must skip from-scratch construction")
	}
	if static.TBuildCycles >= rebuild.TBuildCycles {
		t.Errorf("static TBuild (%d) should beat rebuild (%d)",
			static.TBuildCycles, rebuild.TBuildCycles)
	}
	if incr.RebalanceCycles == 0 {
		t.Error("incremental mode should account rebalance cycles")
	}
	for _, rep := range []Report{rebuild, static, incr} {
		if rep.Tree.NumPoints() != len(cur) {
			t.Errorf("mode lost points: %d", rep.Tree.NumPoints())
		}
		if err := rep.Tree.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeRebuild.String() != "rebuild" || ModeStatic.String() != "static" ||
		ModeIncremental.String() != "incremental" || TreeMode(9).String() != "mode(?)" {
		t.Error("TreeMode strings wrong")
	}
}

func TestUtilizationReasonable(t *testing.T) {
	rep := run(t, 10000, Config{FUs: 64})
	u := rep.Mem.Utilization()
	if u < 0.2 || u > 1.0 {
		t.Errorf("utilization = %.2f, want a loaded memory system", u)
	}
}

func TestExactBacktrackMode(t *testing.T) {
	prev, cur := framePair(6000, 12)
	tree := prevTreeFor(t, prev, 256)
	approx := SimulateFrame(tree, cur, Config{FUs: 64, K: 8},
		checkedProto(), 5)
	exact := SimulateFrame(tree, cur, Config{FUs: 64, K: 8, ExactBacktrack: true},
		checkedProto(), 5)
	if float64(exact.Cycles) < float64(approx.Cycles)*1.2 {
		t.Errorf("exact search should cost more than approximate: %d vs %d",
			exact.Cycles, approx.Cycles)
	}
	// Without the read-gather absorbing the repeat visits, the exact
	// engine pays the full backtracking traffic (the regime of the
	// abstract's 14.5× claim).
	plain := SimulateFrame(tree, cur, Config{FUs: 64, K: 8, ExactBacktrack: true, DisableReadGather: true},
		checkedProto(), 5)
	if float64(plain.Cycles) < float64(approx.Cycles)*8 {
		t.Errorf("plain exact engine should cost ≫ approximate: %d vs %d",
			plain.Cycles, approx.Cycles)
	}
	// Results in exact mode must match the software exact search.
	rep := SimulateFrame(tree, cur, Config{FUs: 16, K: 4, ExactBacktrack: true, ComputeResults: true},
		checkedProto(), 5)
	for qi := 0; qi < len(cur); qi += 97 {
		want, _ := tree.Search(cur[qi], kdtree.Spec{Mode: kdtree.Exact, K: 4})
		got := rep.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d mismatch", qi, i)
			}
		}
	}
}

func TestSimulateDrive(t *testing.T) {
	prev, cur := framePair(4000, 14)
	next := (geom.Transform{Translation: geom.Point{X: 0.8}}).ApplyAll(cur)
	frames := [][]geom.Point{prev, cur, next}
	rep := SimulateDrive(frames, Config{FUs: 32, K: 8}, checkedProtoCfg(), 1)
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	if rep.Warmup.Cycles <= 0 || rep.Warmup.TSearchCycles != 0 {
		t.Errorf("warmup round should be TBuild-only: %+v", rep.Warmup.TSearchCycles)
	}
	if rep.Warmup.Tree.NumPoints() != len(prev) {
		t.Errorf("warmup tree holds %d points", rep.Warmup.Tree.NumPoints())
	}
	wantTotal := rep.Warmup.Cycles
	var fps float64
	for i, r := range rep.Rounds {
		if r.Cycles <= 0 {
			t.Errorf("round %d has no cycles", i)
		}
		if r.Tree.NumPoints() != len(frames[i+1]) {
			t.Errorf("round %d tree holds %d points", i, r.Tree.NumPoints())
		}
		wantTotal += r.Cycles
		fps += r.FPS
	}
	if rep.TotalCycles != wantTotal {
		t.Errorf("TotalCycles = %d, want %d", rep.TotalCycles, wantTotal)
	}
	if rep.MeanFPS <= 0 || rep.MeanFPS != fps/2 {
		t.Errorf("MeanFPS = %v", rep.MeanFPS)
	}
}

func TestSimulateDriveChainsTreesInStaticMode(t *testing.T) {
	prev, cur := framePair(4000, 15)
	frames := [][]geom.Point{prev, cur, prev, cur}
	rep := SimulateDrive(frames, Config{FUs: 32, Mode: ModeStatic}, checkedProtoCfg(), 1)
	// Static mode keeps the warmup tree's split structure forever.
	warmNodes := rep.Warmup.Tree.NumNodes()
	for i, r := range rep.Rounds {
		if r.TreeNodes != warmNodes {
			t.Errorf("round %d: %d nodes, want the warmup's %d (static)", i, r.TreeNodes, warmNodes)
		}
		if r.SortCycles != 0 {
			t.Errorf("round %d: static mode must not sort", i)
		}
	}
}

func TestSimulateDrivePanicsOnShortInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("one-frame drive should panic")
		}
	}()
	prev, _ := framePair(100, 16)
	SimulateDrive([][]geom.Point{prev}, Config{}, checkedProtoCfg(), 1)
}

func TestTimelineSpans(t *testing.T) {
	rep := run(t, 6000, Config{FUs: 64})
	if len(rep.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	phases := map[string]bool{}
	for _, s := range rep.Timeline {
		if s.End <= s.Start {
			t.Errorf("degenerate span %+v", s)
		}
		if s.End > rep.Cycles {
			t.Errorf("span %+v ends after the round (%d)", s, rep.Cycles)
		}
		phases[s.Engine+"/"+s.Phase] = true
	}
	for _, want := range []string{
		"TBuild/sample", "TBuild/construct", "TBuild/place", "TSearch/search",
	} {
		if !phases[want] {
			t.Errorf("missing phase %s in timeline: %v", want, phases)
		}
	}
	// Fig. 7's pipelining: TSearch's search overlaps TBuild's placement.
	var place, search PhaseSpan
	for _, s := range rep.Timeline {
		if s.Engine == "TBuild" && s.Phase == "place" {
			place = s
		}
		if s.Engine == "TSearch" && s.Phase == "search" {
			search = s
		}
	}
	if search.Start >= place.End || place.Start >= search.End {
		t.Errorf("place %v and search %v should overlap", place, search)
	}
}
