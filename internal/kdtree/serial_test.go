package kdtree

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
)

// TestReadFromV1DumpBitIdentical pins format version 1 across arena
// layouts: testdata/legacy_v1.qkdt was written by the float32-AoS arena
// (before the coordinate planes became the only copy of each point).
// It must load, re-serialize to the same bytes, and equal the dump of a
// tree built today by the same recipe.
func TestReadFromV1DumpBitIdentical(t *testing.T) {
	want, err := os.ReadFile("testdata/legacy_v1.qkdt")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFrom(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("legacy dump does not re-serialize bit-identically")
	}

	pts := clusteredPoints(2000, 61)
	tr := Build(pts, Config{BucketSize: 32}, rand.New(rand.NewSource(62)))
	moved := (geom.Transform{Yaw: 0.05, Translation: geom.Point{X: 5, Y: -2}}).ApplyAll(pts[:1500])
	tr.UpdateFrame(moved, 0, 0)
	var fresh bytes.Buffer
	if _, err := tr.WriteTo(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatal("tree built by the legacy dump's recipe serializes differently")
	}
}

func TestSerializeRoundTripExact(t *testing.T) {
	pts := clusteredPoints(3000, 70)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 71)
	// Mutate first so free lists are non-trivial.
	tree.Rebalance(16, 128)

	var buf bytes.Buffer
	n, err := tree.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPoints() != tree.NumPoints() || loaded.NumNodes() != tree.NumNodes() ||
		loaded.NumBuckets() != tree.NumBuckets() {
		t.Fatalf("shape mismatch after round trip")
	}
	if loaded.Config() != tree.Config() {
		t.Errorf("config mismatch: %+v vs %+v", loaded.Config(), tree.Config())
	}
	// Bit-identical search behaviour.
	queries := clusteredPoints(100, 72)
	for _, q := range queries {
		a, _ := tree.Search(q, Spec{K: 5})
		b, _ := loaded.Search(q, Spec{K: 5})
		if len(a) != len(b) {
			t.Fatal("result length mismatch")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("approx results differ after round trip")
			}
		}
		ea, _ := tree.Search(q, Spec{Mode: Exact, K: 5})
		eb, _ := loaded.Search(q, Spec{Mode: Exact, K: 5})
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatal("exact results differ after round trip")
			}
		}
	}
	// The loaded tree remains fully mutable.
	loaded.UpdateFrame(clusteredPoints(3000, 73), 0, 0)
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, data := range cases {
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated valid stream.
	tree := mustBuild(t, clusteredPoints(200, 74), Config{BucketSize: 32}, 75)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupted magic.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[0] ^= 0xff
	if _, err := ReadFrom(bytes.NewReader(corrupt)); err == nil {
		t.Error("bad magic accepted")
	}
	// An internal node splitting on no axis: node 0 (the root) starts
	// right after the 12-word header, with its axis word first.
	badAxis := append([]byte(nil), buf.Bytes()...)
	if tree.root != 0 || tree.nodes[0].Leaf() {
		t.Fatal("expected an internal root at node 0")
	}
	badAxis[48] = 7
	if _, err := ReadFrom(bytes.NewReader(badAxis)); err == nil {
		t.Error("split axis 7 accepted")
	}
}
