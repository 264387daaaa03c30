package quicknn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadFrameCSV parses a point cloud from CSV: one point per line as
// "x,y,z" (extra columns such as intensity are ignored; blank lines and
// lines starting with '#' are skipped). This matches cmd/datagen's output
// and the common export format of LiDAR datasets. A NaN or infinite
// coordinate is refused with ErrInvalidPoint.
func ReadFrameCSV(r io.Reader) ([]Point, error) {
	var pts []Point
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("quicknn: line %d: want at least 3 fields, got %d", line, len(fields))
		}
		var coords [3]float64
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 32)
			if err != nil {
				return nil, fmt.Errorf("quicknn: line %d field %d: %v", line, i+1, err)
			}
			coords[i] = v
		}
		pts = append(pts, Point{X: float32(coords[0]), Y: float32(coords[1]), Z: float32(coords[2])})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("quicknn: reading frame: %v", err)
	}
	if err := checkFinite(pts); err != nil {
		return nil, err
	}
	return pts, nil
}

// WriteFrameCSV writes a point cloud as "x,y,z" lines.
func WriteFrameCSV(w io.Writer, pts []Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		if _, err := fmt.Fprintf(bw, "%.4f,%.4f,%.4f\n", p.X, p.Y, p.Z); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// frameMagic guards the binary frame format.
const frameMagic = uint32(0x514e4e46) // "QNNF"

// WriteFrameBinary writes a point cloud in the accelerator's native
// external-memory layout: a small header followed by packed 12-byte
// {x, y, z} float32 records, little-endian — exactly the bytes the
// simulated DRAM holds for a frame.
func WriteFrameBinary(w io.Writer, pts []Point) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(pts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [12]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint32(rec[0:4], math.Float32bits(p.X))
		binary.LittleEndian.PutUint32(rec[4:8], math.Float32bits(p.Y))
		binary.LittleEndian.PutUint32(rec[8:12], math.Float32bits(p.Z))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrameBinary reads a point cloud written by WriteFrameBinary. A NaN
// or infinite coordinate is refused with ErrInvalidPoint.
func ReadFrameBinary(r io.Reader) ([]Point, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("quicknn: frame header: %v", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != frameMagic {
		return nil, fmt.Errorf("quicknn: bad frame magic %#x", got)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	const maxPoints = 1 << 28 // 256M points ≈ 3 GiB: reject corrupt headers
	if n > maxPoints {
		return nil, fmt.Errorf("quicknn: frame claims %d points", n)
	}
	pts := make([]Point, n)
	var rec [12]byte
	for i := range pts {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("quicknn: point %d: %v", i, err)
		}
		pts[i] = Point{
			X: math.Float32frombits(binary.LittleEndian.Uint32(rec[0:4])),
			Y: math.Float32frombits(binary.LittleEndian.Uint32(rec[4:8])),
			Z: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:12])),
		}
	}
	if err := checkFinite(pts); err != nil {
		return nil, err
	}
	return pts, nil
}
