package quicknn

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// requireFinite fails the test if any accepted point has a NaN or
// infinite coordinate.
func requireFinite(t *testing.T, pts []Point) {
	t.Helper()
	for i, p := range pts {
		for _, v := range [3]float64{float64(p.X), float64(p.Y), float64(p.Z)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite point %d: %+v", i, p)
			}
		}
	}
}

// FuzzReadFrameCSV checks the CSV parser never panics and that everything
// it accepts is finite and round-trips through the writer.
func FuzzReadFrameCSV(f *testing.F) {
	f.Add("1,2,3\n")
	f.Add("# comment\n\n-1.5,2.25,0.125,99\n")
	f.Add("a,b,c\n")
	f.Add("1,2\n")
	f.Add(strings.Repeat("0,0,0\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		pts, err := ReadFrameCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		requireFinite(t, pts)
		var buf bytes.Buffer
		if err := WriteFrameCSV(&buf, pts); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadFrameCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("round trip changed count: %d → %d", len(pts), len(again))
		}
	})
}

// FuzzReadFrameBinary checks the binary frame reader is robust against
// arbitrary input: it must either error or return a well-formed slice of
// finite points.
func FuzzReadFrameBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrameBinary(&seed, []Point{{X: 1, Y: 2, Z: 3}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x46, 0x4e, 0x4e, 0x51, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadFrameBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireFinite(t, pts)
		var buf bytes.Buffer
		if err := WriteFrameBinary(&buf, pts); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			// Accepted input must be canonical up to trailing garbage —
			// and the reader consumes exactly the declared point count,
			// so a re-encode reproduces the prefix it parsed.
			t.Fatal("accepted non-canonical frame encoding")
		}
	})
}

// FuzzLoadIndex checks the index deserializer never panics or accepts a
// structurally invalid tree.
func FuzzLoadIndex(f *testing.F) {
	ref, _ := SuccessiveFrames(200, 80)
	ix := mustIndex(f, ref, WithBucketSize(32))
	var seed bytes.Buffer
	_, _ = ix.WriteTo(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be a valid index — its bucket boxes
		// included, so no loaded file can carry a stale box — and behave
		// like one.
		if err := loaded.tree.Validate(); err != nil {
			t.Fatalf("accepted index fails Validate: %v", err)
		}
		if loaded.Len() > 0 {
			q := loaded.Points()[0]
			res := mustQuery(t, loaded, q, QueryOptions{K: 1})
			if len(res) == 0 {
				t.Fatal("accepted index cannot search")
			}
		}
	})
}
