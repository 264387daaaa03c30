package kdtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/quicknn/quicknn/internal/geom"
)

// Serialization format: a versioned little-endian dump of the tree's
// internal arrays (nodes, buckets, free lists), so a loaded tree is an
// exact clone of the saved one — same node ids, same traversal paths,
// same search results bit for bit.
const (
	serialMagic   = uint32(0x514b4454) // "QKDT"
	serialVersion = uint32(1)
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	put := func(vs ...uint32) error {
		for _, v := range vs {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := t.cfg
	if err := put(serialMagic, serialVersion,
		uint32(cfg.BucketSize), uint32(cfg.SampleSize), uint32(cfg.MaxDepth), uint32(cfg.MinSamplePoints),
		uint32(t.root), uint32(t.liveBuckets),
		uint32(len(t.nodes)), uint32(len(t.buckets)),
		uint32(len(t.freeNodes)), uint32(len(t.freeBuckets))); err != nil {
		return cw.n, err
	}
	for _, nd := range t.nodes {
		if err := put(uint32(nd.Axis), math.Float32bits(nd.Threshold),
			uint32(nd.Parent), uint32(nd.Left), uint32(nd.Right), uint32(nd.Bucket)); err != nil {
			return cw.n, err
		}
	}
	for i := range t.buckets {
		b := &t.buckets[i]
		live := uint32(0)
		if b.live {
			live = 1
		}
		if err := put(live, uint32(b.Leaf), uint32(b.n)); err != nil {
			return cw.n, err
		}
		// Per-bucket float32 point records from the arena span. The wire
		// format is unchanged from the per-bucket-slice layout: a dump
		// written before the SoA arena loads bit-identically after it (and
		// vice versa).
		for j := b.off; j < b.off+b.n; j++ {
			p := t.arenaPoint(j)
			if err := put(math.Float32bits(p.X), math.Float32bits(p.Y), math.Float32bits(p.Z),
				uint32(t.arenaIdx[j])); err != nil {
				return cw.n, err
			}
		}
	}
	for _, f := range t.freeNodes {
		if err := put(uint32(f)); err != nil {
			return cw.n, err
		}
	}
	for _, f := range t.freeBuckets {
		if err := put(uint32(f)); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadFrom deserializes a tree written by WriteTo and validates it.
func ReadFrom(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	get := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	getN := func(out []uint32) error {
		for i := range out {
			v, err := get()
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
	hdr := make([]uint32, 12)
	if err := getN(hdr); err != nil {
		return nil, fmt.Errorf("kdtree: reading header: %v", err)
	}
	if hdr[0] != serialMagic {
		return nil, fmt.Errorf("kdtree: bad magic %#x", hdr[0])
	}
	if hdr[1] != serialVersion {
		return nil, fmt.Errorf("kdtree: unsupported version %d", hdr[1])
	}
	// Bound every count before allocating: a corrupt header must not be
	// able to demand gigabytes. 1M nodes/buckets covers trees three
	// orders of magnitude beyond the paper's workloads.
	const maxEntities = 1 << 20
	numNodes, numBuckets := hdr[8], hdr[9]
	numFreeN, numFreeB := hdr[10], hdr[11]
	if numNodes > maxEntities || numBuckets > maxEntities {
		return nil, fmt.Errorf("kdtree: implausible sizes %d/%d", numNodes, numBuckets)
	}
	if numFreeN > numNodes || numFreeB > numBuckets {
		return nil, fmt.Errorf("kdtree: free lists exceed tables (%d/%d, %d/%d)",
			numFreeN, numNodes, numFreeB, numBuckets)
	}
	t := &Tree{
		cfg: Config{
			BucketSize:      int(hdr[2]),
			SampleSize:      int(hdr[3]),
			MaxDepth:        int(hdr[4]),
			MinSamplePoints: int(hdr[5]),
		},
		root:        int32(hdr[6]),
		liveBuckets: int(hdr[7]),
	}
	t.nodes = make([]Node, numNodes)
	rec := make([]uint32, 6)
	for i := range t.nodes {
		if err := getN(rec); err != nil {
			return nil, fmt.Errorf("kdtree: node %d: %v", i, err)
		}
		t.nodes[i] = Node{
			Axis:      geom.Axis(rec[0]),
			Threshold: math.Float32frombits(rec[1]),
			Parent:    int32(rec[2]),
			Left:      int32(rec[3]),
			Right:     int32(rec[4]),
			Bucket:    int32(rec[5]),
		}
	}
	// Buckets load into a freshly packed arena: spans laid out
	// back-to-back in bucket order with no slack and no holes, preserving
	// each bucket's point order so the loaded tree answers every search
	// bit-identically to the saved one.
	t.buckets = make([]Bucket, numBuckets)
	bhdr := make([]uint32, 3)
	prec := make([]uint32, 4)
	var totalPoints uint64
	for i := range t.buckets {
		if err := getN(bhdr); err != nil {
			return nil, fmt.Errorf("kdtree: bucket %d: %v", i, err)
		}
		count := bhdr[2]
		totalPoints += uint64(count)
		if count > maxEntities || totalPoints > 1<<24 {
			return nil, fmt.Errorf("kdtree: bucket %d claims %d points", i, count)
		}
		b := Bucket{live: bhdr[0] == 1, Leaf: int32(bhdr[1])}
		n := int32(count)
		b.off = t.arenaReserve(n)
		b.n, b.cap = n, n
		for j := int32(0); j < n; j++ {
			if err := getN(prec); err != nil {
				return nil, fmt.Errorf("kdtree: bucket %d point %d: %v", i, j, err)
			}
			t.arenaSet(b.off+j, geom.Point{
				X: math.Float32frombits(prec[0]),
				Y: math.Float32frombits(prec[1]),
				Z: math.Float32frombits(prec[2]),
			}, int32(prec[3]))
		}
		if !b.live {
			// A dead bucket slot has no span (its count is zero for dumps
			// we write; tolerate garbage by retiring whatever was claimed).
			t.arenaHole += int(b.cap)
			b = Bucket{live: false, Leaf: b.Leaf}
		}
		t.buckets[i] = b
	}
	t.freeNodes = make([]int32, numFreeN)
	for i := range t.freeNodes {
		v, err := get()
		if err != nil {
			return nil, err
		}
		t.freeNodes[i] = int32(v)
	}
	t.freeBuckets = make([]int32, numFreeB)
	for i := range t.freeBuckets {
		v, err := get()
		if err != nil {
			return nil, err
		}
		t.freeBuckets[i] = int32(v)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("kdtree: loaded tree invalid: %v", err)
	}
	return t, nil
}
