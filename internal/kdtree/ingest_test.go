package kdtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
)

// The ingest contract (docs/performance.md): for ANY worker count,
// Build / Place / Rebalance / UpdateFrame produce a tree that is
// byte-identical to the one-at-a-time reference builder
// (reference_test.go) — same node and bucket numbering, same free-list
// contents, same hole count, same live arena spans — so query answers
// cannot change with Parallelism. These tests pin that contract across
// seeds × worker counts; the worker counts exceed GOMAXPROCS on small CI
// machines on purpose (goroutine interleaving still exercises the
// phased code paths), and 1 runs every phase inline.

var ingestWorkerCounts = []int{1, 2, 3, 4, 8}

// eqI32 compares int32 slices treating nil and empty as equal (both
// builders start from nil and perform identical append/pop sequences,
// but the comparison should not hinge on that).
func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireTreesByteEqual asserts the full structural and arena state
// match between a reference-built tree and one from the ingest engine:
// nodes, buckets with their offsets and capacities, bucket boxes, free
// lists, hole count, arena length, and every live arena slot. Hole and
// slack slots are not compared — nothing reads them. cfg.Parallelism is
// the one field allowed to differ.
func requireTreesByteEqual(t *testing.T, label string, ref, got *Tree) {
	t.Helper()
	if ref.root != got.root {
		t.Fatalf("%s: root %d != %d", label, got.root, ref.root)
	}
	if !reflect.DeepEqual(ref.nodes, got.nodes) {
		for i := range ref.nodes {
			if i < len(got.nodes) && ref.nodes[i] != got.nodes[i] {
				t.Fatalf("%s: node %d = %+v, want %+v (of %d/%d nodes)",
					label, i, got.nodes[i], ref.nodes[i], len(got.nodes), len(ref.nodes))
			}
		}
		t.Fatalf("%s: node tables diverge: %d vs %d nodes", label, len(got.nodes), len(ref.nodes))
	}
	if !reflect.DeepEqual(ref.buckets, got.buckets) {
		for i := range ref.buckets {
			if i < len(got.buckets) && ref.buckets[i] != got.buckets[i] {
				t.Fatalf("%s: bucket %d = %+v, want %+v", label, i, got.buckets[i], ref.buckets[i])
			}
		}
		t.Fatalf("%s: bucket tables diverge: %d vs %d buckets", label, len(got.buckets), len(ref.buckets))
	}
	if !reflect.DeepEqual(ref.boxes, got.boxes) {
		for i := range ref.boxes {
			if i < len(got.boxes) && ref.boxes[i] != got.boxes[i] {
				t.Fatalf("%s: bucket %d box = %v, want %v", label, i, got.boxes[i], ref.boxes[i])
			}
		}
		t.Fatalf("%s: box tables diverge: %d vs %d boxes", label, len(got.boxes), len(ref.boxes))
	}
	if !eqI32(ref.freeNodes, got.freeNodes) {
		t.Fatalf("%s: free node lists diverge:\n got %v\nwant %v", label, got.freeNodes, ref.freeNodes)
	}
	if !eqI32(ref.freeBuckets, got.freeBuckets) {
		t.Fatalf("%s: free bucket lists diverge:\n got %v\nwant %v", label, got.freeBuckets, ref.freeBuckets)
	}
	if ref.liveBuckets != got.liveBuckets {
		t.Fatalf("%s: liveBuckets %d != %d", label, got.liveBuckets, ref.liveBuckets)
	}
	if ref.arenaHole != got.arenaHole {
		t.Fatalf("%s: arenaHole %d != %d", label, got.arenaHole, ref.arenaHole)
	}
	if ref.ArenaLen() != got.ArenaLen() {
		t.Fatalf("%s: arena length %d != %d", label, got.ArenaLen(), ref.ArenaLen())
	}
	for bi := range ref.buckets {
		b := &ref.buckets[bi]
		if !b.live {
			continue
		}
		for i := b.off; i < b.off+b.n; i++ {
			if ref.arenaPoint(i) != got.arenaPoint(i) || ref.arenaIdx[i] != got.arenaIdx[i] {
				t.Fatalf("%s: bucket %d arena slot %d = {%v, %d}, want {%v, %d}", label, bi, i,
					got.arenaPoint(i), got.arenaIdx[i], ref.arenaPoint(i), ref.arenaIdx[i])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: engine-built tree invalid: %v", label, err)
	}
}

// requireSameAnswers asserts byte-identical exact, approx, and
// bounded-checks query results between the two trees (the acceptance
// criterion stated over observable behavior, not just internal state).
func requireSameAnswers(t *testing.T, label string, ref, got *Tree) {
	t.Helper()
	queries := equivalenceQueries(40, 97)
	for _, k := range []int{1, 8} {
		for qi, q := range queries {
			wantA, wantAS := ref.SearchApprox(q, k)
			gotA, gotAS := got.SearchApprox(q, k)
			if !reflect.DeepEqual(wantA, gotA) || wantAS != gotAS {
				t.Fatalf("%s: approx k=%d query %d diverges:\n got %v %+v\nwant %v %+v",
					label, k, qi, gotA, gotAS, wantA, wantAS)
			}
			wantE, wantES := ref.SearchExact(q, k)
			gotE, gotES := got.SearchExact(q, k)
			if !reflect.DeepEqual(wantE, gotE) || wantES != gotES {
				t.Fatalf("%s: exact k=%d query %d diverges", label, k, qi)
			}
			wantC, wantCS := ref.SearchChecks(q, k, 512)
			gotC, gotCS := got.SearchChecks(q, k, 512)
			if !reflect.DeepEqual(wantC, gotC) || wantCS != gotCS {
				t.Fatalf("%s: checks k=%d query %d diverges", label, k, qi)
			}
		}
	}
}

func TestBuildParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		pts := clusteredPoints(30000, seed)
		cfg := Config{BucketSize: 64}
		ref := refBuild(pts, cfg, rand.New(rand.NewSource(seed)))
		if err := ref.Validate(); err != nil {
			t.Fatalf("reference tree invalid: %v", err)
		}
		for _, w := range ingestWorkerCounts {
			cfg.Parallelism = w
			got := Build(pts, cfg, rand.New(rand.NewSource(seed)))
			label := fmt.Sprintf("seed=%d workers=%d", seed, w)
			requireTreesByteEqual(t, label, ref, got)
			if w == ingestWorkerCounts[0] {
				requireSameAnswers(t, label, ref, got)
			}
		}
	}
}

func TestPlaceParallelEquivalence(t *testing.T) {
	base := clusteredPoints(20000, 3)
	// Frames sized to exercise the growth simulator: refills that fit
	// (no relocation), overfills that force growBucket event chains, an
	// accumulation on top of live content, and a frame below the
	// multi-worker threshold.
	big := clusteredPoints(60000, 5)
	shifted := (geom.Transform{Yaw: 0.05, Translation: geom.Point{X: 6, Y: -3}}).ApplyAll(base)
	small := big[:parallelPlaceMin-1]
	for _, w := range ingestWorkerCounts {
		ref := refBuild(base, Config{BucketSize: 64}, rand.New(rand.NewSource(9)))
		got := ref.Clone()
		got.SetParallelism(w)

		step := func(label string, place []geom.Point, reset bool) {
			for _, tr := range []*Tree{ref, got} {
				if reset {
					tr.ResetBuckets()
				}
			}
			refPlace(ref, place)
			got.Place(place)
			requireTreesByteEqual(t, fmt.Sprintf("workers=%d %s", w, label), ref, got)
		}
		step("refill", base, true)
		step("overfill", big, true)
		step("accumulate", shifted, false)
		step("shrink", shifted, true)
		step("small", small, false)
		if w == ingestWorkerCounts[len(ingestWorkerCounts)-1] {
			requireSameAnswers(t, "place", ref, got)
		}
	}
}

func TestUpdateFrameParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		frames := [][]geom.Point{clusteredPoints(24000, seed)}
		// A drifting, size-varying frame sequence: shrinking frames breed
		// delinquent leaves (merges), drift plus regrowth breeds oversized
		// leaves (splits), so the phased rebalance really runs.
		drift := geom.Transform{Yaw: 0.04, Translation: geom.Point{X: 4, Y: 2}}
		sizes := []int{12000, 6000, 30000, 24000}
		for i, n := range sizes {
			prev := frames[len(frames)-1]
			moved := drift.ApplyAll(prev)
			if n <= len(moved) {
				moved = moved[:n]
			} else {
				extra := clusteredPoints(n-len(moved), seed+int64(i)*17)
				moved = append(moved, extra...)
			}
			frames = append(frames, moved)
		}
		for _, w := range ingestWorkerCounts {
			ref := refBuild(frames[0], Config{BucketSize: 64}, rand.New(rand.NewSource(seed)))
			got := ref.Clone()
			got.SetParallelism(w)
			rebuilds := 0
			for fi, f := range frames[1:] {
				wantRes := refUpdateFrame(ref, f, 0, 0)
				gotRes := got.UpdateFrame(f, 0, 0)
				label := fmt.Sprintf("seed=%d workers=%d frame=%d", seed, w, fi)
				if wantRes != gotRes {
					t.Fatalf("%s: UpdateResult = %+v, want %+v", label, gotRes, wantRes)
				}
				rebuilds += wantRes.Merged + wantRes.Split
				requireTreesByteEqual(t, label, ref, got)
			}
			if rebuilds == 0 {
				t.Fatalf("seed=%d: frame sequence never triggered a rebuild; test is vacuous", seed)
			}
			requireSameAnswers(t, fmt.Sprintf("seed=%d workers=%d", seed, w), ref, got)
		}
	}
}

func TestRebalanceParallelEquivalence(t *testing.T) {
	// Drive Rebalance directly with tight bounds so both merge rounds
	// and splits fire repeatedly on a skewed occupancy.
	pts := clusteredPoints(16000, 21)
	skew := clusteredPoints(16000, 22)
	for i := range skew {
		skew[i].X = skew[i].X*0.2 + 30 // squeeze into few leaves
	}
	for _, w := range ingestWorkerCounts {
		ref := refBuild(pts, Config{BucketSize: 64}, rand.New(rand.NewSource(33)))
		got := ref.Clone()
		got.SetParallelism(w)
		// Round 1: the skewed refill empties most leaves — merges fire.
		for _, tr := range []*Tree{ref, got} {
			tr.ResetBuckets()
		}
		refPlace(ref, skew)
		got.Place(skew)
		mergeRes, _ := refRebalance(ref, 32, 128)
		if gotRes := got.Rebalance(32, 128); mergeRes != gotRes {
			t.Fatalf("workers=%d: merge UpdateResult = %+v, want %+v", w, gotRes, mergeRes)
		}
		requireTreesByteEqual(t, fmt.Sprintf("workers=%d merge", w), ref, got)
		// Round 2: accumulating the original frame on top overfills the
		// merged leaves; a tiny lower bound isolates the split step.
		refPlace(ref, pts)
		got.Place(pts)
		splitRes, _ := refRebalance(ref, 2, 96)
		if gotRes := got.Rebalance(2, 96); splitRes != gotRes {
			t.Fatalf("workers=%d: split UpdateResult = %+v, want %+v", w, gotRes, splitRes)
		}
		requireTreesByteEqual(t, fmt.Sprintf("workers=%d split", w), ref, got)
		if mergeRes.Merged == 0 || splitRes.Split == 0 {
			t.Fatalf("rebalance rounds did neither merge (%d) nor split (%d); test is vacuous",
				mergeRes.Merged, splitRes.Split)
		}
	}
}

// TestRebalanceResurrectedLeafMatchesReference reaches the merge
// round's one divergence between planning and committing: a node slot
// that an earlier rebuild of the round freed (so the plan skips its
// delinquent-list entry) and a later rebuild reuses as a new leaf that
// is itself delinquent. With lower close to upper, a rebuild's median
// splits leave leaves below lower, so such leaves appear often.
func TestRebalanceResurrectedLeafMatchesReference(t *testing.T) {
	pts := clusteredPoints(8000, 1)
	skew := clusteredPoints(8000, 101)
	for i := range skew {
		skew[i].X = skew[i].X*0.3 + 20 // squeeze into few leaves
	}
	for _, w := range ingestWorkerCounts {
		ref := refBuild(pts, Config{BucketSize: 64}, rand.New(rand.NewSource(1)))
		got := ref.Clone()
		got.SetParallelism(w)
		for _, tr := range []*Tree{ref, got} {
			tr.ResetBuckets()
		}
		refPlace(ref, skew)
		got.Place(skew)
		wantRes, resurrected := refRebalance(ref, 60, 100)
		if resurrected == 0 {
			t.Fatalf("no merge reused a slot freed in its own round; test is vacuous")
		}
		label := fmt.Sprintf("workers=%d", w)
		if gotRes := got.Rebalance(60, 100); gotRes != wantRes {
			t.Fatalf("%s: UpdateResult = %+v, want %+v", label, gotRes, wantRes)
		}
		requireTreesByteEqual(t, label, ref, got)
		requireSameAnswers(t, label, ref, got)
	}
}

func TestSamplePointsIntoMatchesLegacy(t *testing.T) {
	// The index-selection sampler must draw the same rng sequence — and
	// therefore pick the same points — as the historical implementation
	// that copied the whole slice and partially shuffled it.
	legacy := func(points []geom.Point, n int, rng *rand.Rand) []geom.Point {
		out := make([]geom.Point, len(points))
		copy(out, points)
		if n >= len(points) {
			return out
		}
		for i := 0; i < n; i++ {
			j := i + rng.Intn(len(out)-i)
			out[i], out[j] = out[j], out[i]
		}
		return out[:n]
	}
	pts := clusteredPoints(5000, 13)
	for _, n := range []int{1, 100, 2500, 5000, 9000} {
		want := legacy(pts, n, rand.New(rand.NewSource(77)))
		sc := getSampleScratch()
		got := samplePointsInto(sc, pts, n, rand.New(rand.NewSource(77)))
		if len(want) > len(pts) {
			want = want[:len(pts)]
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d: sample diverges from legacy sampler", n)
		}
		putSampleScratch(sc)
	}
}

func TestIngestTimingPhases(t *testing.T) {
	pts := clusteredPoints(8000, 4)
	tr := Build(pts, Config{BucketSize: 64, Parallelism: 2}, rand.New(rand.NewSource(1)))
	ti := tr.LastIngest()
	if ti.SplitsSeconds <= 0 || ti.PlaceSeconds <= 0 {
		t.Fatalf("Build timing incomplete: %+v", ti)
	}
	if ti.PlanSeconds <= 0 || ti.ScatterSeconds <= 0 {
		t.Fatalf("parallel Place should report plan+scatter: %+v", ti)
	}
	if ti.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", ti.Workers)
	}
	tr.UpdateFrame(pts, 0, 0)
	ti = tr.LastIngest()
	if ti.SplitsSeconds != 0 {
		t.Fatalf("UpdateFrame should not report a splits phase: %+v", ti)
	}
	if ti.PlaceSeconds <= 0 || ti.RebalanceSeconds <= 0 {
		t.Fatalf("UpdateFrame timing incomplete: %+v", ti)
	}
	// One worker runs the same phases inline, so it reports them too.
	tr.SetParallelism(1)
	tr.UpdateFrame(pts, 0, 0)
	ti = tr.LastIngest()
	if ti.PlanSeconds <= 0 || ti.ScatterSeconds <= 0 {
		t.Fatalf("one-worker Place should report plan+scatter: %+v", ti)
	}
	if ti.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", ti.Workers)
	}
}

func TestPlacePlanZeroAllocs(t *testing.T) {
	// The pooled plan buffers are Place's only scratch; once warm,
	// planning a same-shaped frame must not allocate. planPlace
	// is read-only on the tree, so re-running it is idempotent. workers=1
	// keeps the assertion meaningful (the fan-out itself spawns
	// goroutines, which allocate by design).
	pts := clusteredPoints(12000, 51)
	tree := mustBuild(t, pts, Config{BucketSize: 64, Parallelism: 1}, 52)
	assertZeroAllocs(t, "planPlace", func() {
		pl := getPlacePlan()
		tree.planPlace(pts, pl, 1)
		putPlacePlan(pl)
	})
}

func TestUpdateFrameSteadyStateZeroAllocs(t *testing.T) {
	// Steady state: the same frame placed into a settled tree triggers no
	// rebuild work, and with the freed-set and walk scratch now reusable
	// the whole UpdateFrame must be allocation-free at one worker
	// (historically the rebalance pass allocated a map[int32]bool per
	// call; more workers spawn goroutines, which allocate by design).
	pts := clusteredPoints(20000, 53)
	tree := mustBuild(t, pts, Config{BucketSize: 64, Parallelism: 1}, 54)
	tree.UpdateFrame(pts, 0, 0) // settle
	if res := tree.UpdateFrame(pts, 0, 0); res != (UpdateResult{}) {
		t.Fatalf("tree not settled: %+v", res)
	}
	assertZeroAllocs(t, "UpdateFrame", func() {
		tree.UpdateFrame(pts, 0, 0)
	})
}
