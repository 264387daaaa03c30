package quicknn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	qsim "github.com/quicknn/quicknn/internal/arch/quicknn"
)

func apiCloud(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float32() * 50, Y: rng.Float32() * 50, Z: rng.Float32() * 4}
	}
	return pts
}

func TestBuildIndexErrors(t *testing.T) {
	if _, err := BuildIndex(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildIndex(nil) = %v, want ErrEmptyInput", err)
	}
	if _, err := BuildIndex([]Point{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildIndex(empty) = %v, want ErrEmptyInput", err)
	}
	pts := apiCloud(100, 1)
	if _, err := BuildIndex(pts, WithBucketSize(-1)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("BuildIndex(bucket=-1) = %v, want ErrInvalidOptions", err)
	}
	if _, err := BuildIndex(pts, WithSampleSize(-5)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("BuildIndex(sample=-5) = %v, want ErrInvalidOptions", err)
	}
	ix, err := BuildIndex(pts, WithBucketSize(64), WithSeed(7))
	if err != nil {
		t.Fatalf("BuildIndex(valid) = %v", err)
	}
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}
}

// TestNonFinitePointsRefused checks that every ingest entry point refuses
// a NaN, +Inf or -Inf coordinate with ErrInvalidPoint, and that a refused
// update or frame leaves the index exactly as it was.
func TestNonFinitePointsRefused(t *testing.T) {
	ctx := context.Background()
	pts := apiCloud(600, 20)
	queries := apiCloud(30, 21)
	ix := mustIndex(t, pts, WithBucketSize(64))
	var before bytes.Buffer
	if _, err := ix.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	exact := QueryOptions{K: 4, Mode: ModeExact}
	want := mustQueryBatch(t, ix, queries, exact)
	p := NewPipeline(PipelineConfig{K: 4, Mode: qsim.ModeIncremental})
	if _, err := p.ProcessCtx(ctx, pts); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		bad := append([]Point(nil), pts...)
		bad[123].Y = float32(v)
		var csv, bin bytes.Buffer
		if err := WriteFrameCSV(&csv, bad); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameBinary(&bin, bad); err != nil {
			t.Fatal(err)
		}
		_, buildErr := BuildIndex(bad)
		_, csvErr := ReadFrameCSV(&csv)
		_, binErr := ReadFrameBinary(&bin)
		_, pipeErr := p.ProcessCtx(ctx, bad)
		for entry, err := range map[string]error{
			"BuildIndex":          buildErr,
			"Update":              ix.Update(bad),
			"UpdateStatic":        ix.UpdateStatic(bad),
			"ReadFrameCSV":        csvErr,
			"ReadFrameBinary":     binErr,
			"Pipeline.ProcessCtx": pipeErr,
		} {
			if !errors.Is(err, ErrInvalidPoint) {
				t.Errorf("%s with a %s coordinate = %v, want ErrInvalidPoint", entry, name, err)
			}
		}
	}
	var after bytes.Buffer
	if _, err := ix.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("a refused update changed the serialized index")
	}
	got := mustQueryBatch(t, ix, queries, exact)
	for qi := range want {
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Fatalf("query %d neighbor %d after refused updates: %+v, want %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}
	if res, err := p.ProcessCtx(ctx, pts); err != nil || res.FrameIndex != 1 {
		t.Fatalf("pipeline after refused frames: frame %d, err %v; want frame 1", res.FrameIndex, err)
	}
}

func TestQueryOptionValidation(t *testing.T) {
	ix, err := BuildIndex(apiCloud(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, opts := range map[string]QueryOptions{
		"zero k":          {},
		"negative k":      {K: -3},
		"negative radius": {Mode: ModeRadius, Radius: -1},
		"unknown mode":    {K: 1, Mode: QueryMode(99)},
	} {
		if _, err := ix.Query(ctx, Point{}, opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: Query = %v, want ErrInvalidOptions", name, err)
		}
	}
}

func TestQueryHonorsCancellation(t *testing.T) {
	ix, err := BuildIndex(apiCloud(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the query must not run
	if _, err := ix.Query(ctx, Point{X: 1}, QueryOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("Query(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := ix.QueryBatch(ctx, apiCloud(64, 7), QueryOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatch(cancelled) = %v, want context.Canceled", err)
	}
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	ix, err := BuildIndex(apiCloud(1500, 8), WithBucketSize(128))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := apiCloud(100, 9)
	batch, err := ix.QueryBatch(ctx, queries, QueryOptions{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d results, want %d", len(batch), len(queries))
	}
	for qi, q := range queries {
		want := mustQuery(t, ix, q, QueryOptions{K: 4})
		if len(batch[qi]) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(batch[qi]), len(want))
		}
		for i := range want {
			if batch[qi][i] != want[i] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", qi, i, batch[qi][i], want[i])
			}
		}
	}
	empty, err := ix.QueryBatch(ctx, nil, QueryOptions{K: 4})
	if err != nil || len(empty) != 0 {
		t.Fatalf("QueryBatch(nil) = %v, %v; want empty, nil", empty, err)
	}
}

func TestProcessCtx(t *testing.T) {
	p := NewPipeline(PipelineConfig{K: 4})
	ctx := context.Background()
	if _, err := p.ProcessCtx(ctx, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("ProcessCtx(empty) = %v, want ErrEmptyInput", err)
	}
	res, err := p.ProcessCtx(ctx, apiCloud(300, 10))
	if err != nil {
		t.Fatalf("ProcessCtx(first frame) = %v", err)
	}
	if res.FrameIndex != 0 || res.Neighbors != nil {
		t.Fatalf("first frame result %+v, want frame 0 with no neighbors", res)
	}
	res, err = p.ProcessCtx(ctx, apiCloud(300, 11))
	if err != nil {
		t.Fatalf("ProcessCtx(second frame) = %v", err)
	}
	if res.FrameIndex != 1 || len(res.Neighbors) != 300 {
		t.Fatalf("second frame: frame=%d neighbors=%d, want 1/300", res.FrameIndex, len(res.Neighbors))
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.ProcessCtx(cancelled, apiCloud(300, 12)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessCtx(cancelled) = %v, want context.Canceled", err)
	}
}

// tamperFirstBucketIndex locates the first live, non-empty bucket in a
// serialized index stream and returns the byte offset of its point
// records' index fields. Stream layout (internal/kdtree/serial.go):
// 12-uint32 header, numNodes 6-uint32 node records, then per bucket a
// 3-uint32 header (live, leaf, numPoints) followed by numPoints
// 4-uint32 point records whose 4th word is the reference index.
func firstBucketIndexOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(raw[off : off+4]) }
	numNodes := int(u32(8 * 4))
	numBuckets := int(u32(9 * 4))
	pos := 12*4 + numNodes*6*4
	for b := 0; b < numBuckets; b++ {
		live, np := u32(pos), int(u32(pos+8))
		pos += 12
		if live == 1 && np >= 2 {
			offsets := make([]int, np)
			for j := 0; j < np; j++ {
				offsets[j] = pos + j*16 + 12
			}
			return offsets
		}
		pos += np * 16
	}
	t.Fatal("no live bucket with >= 2 points found in stream")
	return nil
}

// TestLoadIndexRejectsCorruptBucketIndices tampers a valid stream's
// bucket back-indices two ways — out-of-range and duplicated — and
// checks LoadIndex reports ErrCorruptIndex instead of silently
// dropping points (the bug this release fixes).
func TestLoadIndexRejectsCorruptBucketIndices(t *testing.T) {
	ix, err := BuildIndex(apiCloud(400, 13), WithBucketSize(64))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Control: the untampered stream loads and answers searches.
	if _, err := LoadIndex(bytes.NewReader(clean)); err != nil {
		t.Fatalf("LoadIndex(clean) = %v", err)
	}

	offsets := firstBucketIndexOffsets(t, clean)

	// Out-of-range: point 0's index becomes numPoints + 1e6.
	bad := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(bad[offsets[0]:], uint32(ix.Len()+1_000_000))
	if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("LoadIndex(out-of-range index) = %v, want ErrCorruptIndex", err)
	}

	// Duplicate: point 1's index repeats point 0's — a silent loader
	// would overwrite one reference point and zero-fill another.
	dup := append([]byte(nil), clean...)
	first := binary.LittleEndian.Uint32(dup[offsets[0]:])
	binary.LittleEndian.PutUint32(dup[offsets[1]:], first)
	if _, err := LoadIndex(bytes.NewReader(dup)); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("LoadIndex(duplicate index) = %v, want ErrCorruptIndex", err)
	}
}
