package quicknn

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/kdtree"
	"github.com/quicknn/quicknn/internal/linear"
	"github.com/quicknn/quicknn/internal/nn"
)

// Point is a 3D point (x, y, z).
type Point = geom.Point

// Transform is a rigid yaw+translation transform.
type Transform = geom.Transform

// Neighbor is one search result: reference index, point, and squared
// distance to the query.
type Neighbor = nn.Neighbor

// Option customizes Index construction.
type Option func(*indexOptions)

type indexOptions struct {
	bucketSize  int
	sampleSize  int
	seed        int64
	parallelism int
}

// WithBucketSize sets the k-d tree bucket target B_N (default 256, the
// paper's minimum size for ≥75% top-10 accuracy). Larger buckets trade
// speed for accuracy.
func WithBucketSize(n int) Option { return func(o *indexOptions) { o.bucketSize = n } }

// WithSampleSize sets how many points are sampled to build the tree
// structure (default: automatic).
func WithSampleSize(n int) Option { return func(o *indexOptions) { o.sampleSize = n } }

// WithSeed seeds construction sampling for reproducible trees (default 1).
func WithSeed(seed int64) Option { return func(o *indexOptions) { o.seed = seed } }

// WithParallelism bounds the ingest worker count used by Build, Update and
// UpdateStatic: 0 (the default) resolves to GOMAXPROCS at use time, 1 = one
// worker (every phase inline on the caller), and n > 1 caps the fan-out at
// n goroutines. Every setting produces a byte-identical index — same
// arena layout, same query answers — so the knob trades only wall time,
// never results. Negative values are rejected with ErrInvalidOptions.
func WithParallelism(n int) Option { return func(o *indexOptions) { o.parallelism = n } }

// Index is a bucketed k-d tree over a reference point cloud, the data
// structure at the heart of QuickNN. It is not safe for concurrent
// mutation; concurrent Query calls are safe once built.
type Index struct {
	tree *kdtree.Tree
	ref  []Point
}

// BuildIndex builds an index over the reference points using the paper's
// two-phase construction. Invalid input is reported as an error
// (ErrEmptyInput for an empty cloud, ErrInvalidPoint for a NaN or
// infinite coordinate, ErrInvalidOptions for out-of-domain options).
func BuildIndex(points []Point, opts ...Option) (*Index, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w (BuildIndex requires at least one reference point)", ErrEmptyInput)
	}
	if err := checkFinite(points); err != nil {
		return nil, err
	}
	o := indexOptions{seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	if o.bucketSize < 0 {
		return nil, fmt.Errorf("%w: bucket size %d must be >= 0 (0 selects the default)", ErrInvalidOptions, o.bucketSize)
	}
	if o.sampleSize < 0 {
		return nil, fmt.Errorf("%w: sample size %d must be >= 0 (0 selects automatic)", ErrInvalidOptions, o.sampleSize)
	}
	if o.parallelism < 0 {
		return nil, fmt.Errorf("%w: parallelism %d must be >= 0 (0 selects GOMAXPROCS)", ErrInvalidOptions, o.parallelism)
	}
	cfg := kdtree.Config{BucketSize: o.bucketSize, SampleSize: o.sampleSize, Parallelism: o.parallelism}
	ref := append([]Point(nil), points...)
	tree := kdtree.Build(ref, cfg, rand.New(rand.NewSource(o.seed)))
	return &Index{tree: tree, ref: ref}, nil
}

// Snapshot returns a deep, independent copy of the index: searches and
// updates on either side never observe the other's mutations. The serving
// engine (internal/serve) snapshots the current index per epoch so that
// lock-free readers keep searching frame i while frame i+1 builds.
func (ix *Index) Snapshot() *Index {
	return &Index{tree: ix.tree.Clone(), ref: append([]Point(nil), ix.ref...)}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.tree.NumPoints() }

// Points returns the indexed reference points (do not mutate).
func (ix *Index) Points() []Point { return ix.ref }

// Update re-populates the index with a new frame using the paper's
// incremental tree update (§4.4): the split structure is reused and
// rebalanced locally instead of rebuilt, keeping every bucket within
// [mean/2, 2·mean]. The indexed reference set becomes points. A point
// with a NaN or infinite coordinate is refused with ErrInvalidPoint
// before anything changes, leaving the index as it was.
func (ix *Index) Update(points []Point) error {
	if err := checkFinite(points); err != nil {
		return err
	}
	ix.ref = append(ix.ref[:0], points...)
	ix.tree.UpdateFrame(ix.ref, 0, 0)
	return nil
}

// UpdateStatic re-populates the index keeping the splits frozen (the
// paper's static-tree mode — fast, but balance degrades over frames).
// It refuses non-finite points as Update does.
func (ix *Index) UpdateStatic(points []Point) error {
	if err := checkFinite(points); err != nil {
		return err
	}
	ix.ref = append(ix.ref[:0], points...)
	ix.tree.ResetBuckets()
	ix.tree.Place(ix.ref)
	return nil
}

// checkFinite returns an error wrapping ErrInvalidPoint for the first
// point with a NaN or infinite coordinate: the search's distance
// compares have no order for NaN, so such a point would corrupt exact
// answers.
func checkFinite(points []Point) error {
	for i, p := range points {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("%w: point %d is (%g, %g, %g)", ErrInvalidPoint, i, p.X, p.Y, p.Z)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf: its exponent bits are
// not all ones.
func finite(v float32) bool { return math.Float32bits(v)&0x7f800000 != 0x7f800000 }

// SetParallelism adjusts the ingest worker budget after construction,
// snapshotting, or loading: 0 restores the GOMAXPROCS default, 1 = one
// worker, negative values are treated as 0. Parallelism is not
// persisted by WriteTo, so loaded indexes start at the default.
func (ix *Index) SetParallelism(n int) { ix.tree.SetParallelism(n) }

// IngestTiming is the per-phase wall-time breakdown of the most recent
// ingest operation (build, update, or placement).
type IngestTiming = kdtree.IngestTiming

// IngestTiming reports the phase timings of the last Build/Update/
// UpdateStatic on this index, including how many workers ran.
func (ix *Index) IngestTiming() IngestTiming { return ix.tree.LastIngest() }

// Stats describes the index's bucket occupancy.
type Stats = kdtree.BucketStats

// Stats returns the current bucket-size distribution.
func (ix *Index) Stats() Stats { return ix.tree.Stats() }

// Depth returns the index tree's depth (levels below the root).
func (ix *Index) Depth() int { return ix.tree.Depth() }

// AccuracyReport quantifies approximate-search quality (Fig. 3).
type AccuracyReport = kdtree.AccuracyReport

// Accuracy measures, over the given queries, how often the k exact
// nearest neighbors all appear in the approximate top k+x.
func (ix *Index) Accuracy(queries []Point, k, x int) AccuracyReport {
	return ix.tree.MeasureAccuracy(ix.ref, queries, k, x)
}

// WriteTo serializes the index (tree structure and all indexed points) in
// a versioned binary format; LoadIndex restores it bit-identically.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.tree.WriteTo(w) }

// LoadIndex restores an index saved with WriteTo. The loaded index
// answers every search identically to the saved one and remains fully
// updatable. A stream whose bucket back-indices do not form an exact
// cover of [0, NumPoints) — out-of-range or duplicated indices from a
// corrupt or truncated dump — is rejected with an error wrapping
// ErrCorruptIndex rather than silently reconstructing a zero-filled
// reference slice.
func LoadIndex(r io.Reader) (*Index, error) {
	tree, err := kdtree.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	// Reconstruct the reference slice from the buckets' back-indices,
	// validating that they exactly cover [0, n): every index in range and
	// none seen twice. With n indices total, that pigeonholes into a
	// bijection, so the reconstruction is faithful or the load fails.
	n := tree.NumPoints()
	ref := make([]Point, n)
	seen := make([]bool, n)
	var loadErr error
	var pts []Point
	tree.Buckets(func(id int32, b *kdtree.Bucket) {
		if loadErr != nil {
			return
		}
		pts = tree.AppendBucketPoints(pts[:0], id)
		ids := tree.BucketIndices(id)
		for i, idx32 := range ids {
			idx := int(idx32)
			if idx < 0 || idx >= n {
				loadErr = fmt.Errorf(
					"%w: bucket %d holds reference index %d outside [0,%d)",
					ErrCorruptIndex, id, idx, n)
				return
			}
			if seen[idx] {
				loadErr = fmt.Errorf(
					"%w: bucket %d repeats reference index %d (another point would be dropped)",
					ErrCorruptIndex, id, idx)
				return
			}
			seen[idx] = true
			ref[idx] = pts[i]
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return &Index{tree: tree, ref: ref}, nil
}

// BruteForce returns the k exact nearest neighbors of q in reference by
// exhaustive scan — the paper's linear method.
func BruteForce(reference []Point, q Point, k int) []Neighbor {
	return linear.Search(reference, q, k)
}

// BruteForceAll runs BruteForce for every query in parallel across CPU
// cores.
func BruteForceAll(reference, queries []Point, k int) [][]Neighbor {
	return linear.SearchAllParallel(reference, queries, k, 0)
}
