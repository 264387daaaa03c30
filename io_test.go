package quicknn

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	pts := []Point{{X: 1.5, Y: -2.25, Z: 0.125}, {X: 100, Y: 200, Z: -300}}
	var buf bytes.Buffer
	if err := WriteFrameCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range pts {
		if math.Abs(float64(got[i].X-pts[i].X)) > 1e-3 ||
			math.Abs(float64(got[i].Y-pts[i].Y)) > 1e-3 ||
			math.Abs(float64(got[i].Z-pts[i].Z)) > 1e-3 {
			t.Errorf("point %d: %v vs %v", i, got[i], pts[i])
		}
	}
}

func TestCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1,2,3\n 4 , 5 , 6 \n7,8,9,0.5\n"
	got, err := ReadFrameCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != (Point{X: 4, Y: 5, Z: 6}) {
		t.Errorf("parsed %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadFrameCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("short row should fail")
	}
	if _, err := ReadFrameCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("non-numeric row should fail")
	}
}

func TestBinaryRoundTripExact(t *testing.T) {
	pts, _ := SuccessiveFrames(500, 3)
	var buf bytes.Buffer
	if err := WriteFrameBinary(&buf, pts); err != nil {
		t.Fatal(err)
	}
	// 8-byte header + 12 bytes per point, the accelerator's frame layout.
	if buf.Len() != 8+12*len(pts) {
		t.Errorf("encoded size = %d", buf.Len())
	}
	got, err := ReadFrameBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d not bit-identical", i)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadFrameBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header should fail")
	}
	bad := make([]byte, 8)
	if _, err := ReadFrameBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	var buf bytes.Buffer
	_ = WriteFrameBinary(&buf, []Point{{X: 1, Y: 2, Z: 3}})
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadFrameBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestSearchRadiusFacade(t *testing.T) {
	ref, _ := SuccessiveFrames(3000, 4)
	ix := mustIndex(t, ref)
	res := mustQuery(t, ix, ref[10], QueryOptions{Mode: ModeRadius, Radius: 2.0})
	if len(res) == 0 || res[0].DistSq != 0 {
		t.Fatalf("radius search should find the point itself: %+v", res[:min(len(res), 3)])
	}
	for _, r := range res {
		if r.DistSq > 4.0 {
			t.Fatalf("result outside radius: %v", r.DistSq)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ref, qry := SuccessiveFrames(3000, 50)
	ix := mustIndex(t, ref, WithBucketSize(128))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), ix.Len())
	}
	for i := 0; i < 60; i++ {
		q := qry[i*47%len(qry)]
		a := mustQuery(t, ix, q, QueryOptions{K: 5})
		b := mustQuery(t, loaded, q, QueryOptions{K: 5})
		if len(a) != len(b) {
			t.Fatal("length mismatch")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("results differ after load")
			}
		}
	}
	// The reconstructed reference slice maps neighbor indices correctly.
	res := mustQuery(t, loaded, qry[0], QueryOptions{K: 1})
	if res[0].Point != loaded.Points()[res[0].Index] {
		t.Error("reference reconstruction broke index mapping")
	}
	// Loaded indexes stay updatable.
	if err := loaded.Update(qry); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != len(qry) {
		t.Errorf("update after load: %d points", loaded.Len())
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage accepted")
	}
}
