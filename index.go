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

// WithParallelism bounds the ingest worker count used by BuildIndex,
// Update and Advance: 0 (the default) resolves to GOMAXPROCS at use time,
// 1 = one worker (every phase inline on the caller), and n > 1 caps the
// fan-out at n goroutines. Every setting produces a byte-identical index
// — same arena layout, same query answers — so the knob trades only wall
// time, never results. Negative values are rejected with
// ErrInvalidOptions.
func WithParallelism(n int) Option { return func(o *indexOptions) { o.parallelism = n } }

// Index is a bucketed k-d tree over a reference point cloud, the data
// structure at the heart of QuickNN. Each point is stored once, in the
// tree's bucket arena. It is not safe for concurrent mutation;
// concurrent Query calls are safe once built.
type Index struct {
	tree *kdtree.Tree
	// opts are the options the index was built with, not the tree's
	// resolved configuration: Advance rebuilds with them, and the tree
	// derives its depth and sample size from each frame's size.
	opts indexOptions
}

// BuildIndex builds an index over the reference points using the paper's
// two-phase construction. The index keeps no reference to points. Invalid
// input is reported as an error (ErrEmptyInput for an empty cloud,
// ErrInvalidPoint for a NaN or infinite coordinate, ErrInvalidOptions for
// out-of-domain options).
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
	return build(points, o), nil
}

// build constructs the tree over points with already validated options.
func build(points []Point, o indexOptions) *Index {
	cfg := kdtree.Config{BucketSize: o.bucketSize, SampleSize: o.sampleSize, Parallelism: o.parallelism}
	return &Index{tree: kdtree.Build(points, cfg, rand.New(rand.NewSource(o.seed))), opts: o}
}

// Advance returns the index for the next frame under mode, leaving ix
// unchanged so that searches of ix's frame can go on while (and after) the
// next index is built. ModeRebuild builds afresh with the options ix was
// built with; ModeStatic refills a snapshot's buckets behind frozen
// splits; ModeIncremental refills a snapshot and rebalances it (Update).
// An empty frame is refused with ErrEmptyInput, a NaN or infinite
// coordinate with ErrInvalidPoint, and an unknown mode with
// ErrInvalidOptions, all before any work is done. The returned index keeps
// no reference to frame.
func (ix *Index) Advance(frame []Point, mode TreeMode) (*Index, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("%w (Advance requires a non-empty frame)", ErrEmptyInput)
	}
	if err := checkFinite(frame); err != nil {
		return nil, err
	}
	switch mode {
	case ModeRebuild:
		return build(frame, ix.opts), nil
	case ModeStatic:
		next := ix.Snapshot()
		next.tree.ResetBuckets()
		next.tree.Place(frame)
		return next, nil
	case ModeIncremental:
		next := ix.Snapshot()
		next.tree.UpdateFrame(frame, 0, 0)
		return next, nil
	}
	return nil, fmt.Errorf("%w: unknown tree mode %d", ErrInvalidOptions, int(mode))
}

// Snapshot returns a deep, independent copy of the index: searches and
// updates on either side never observe the other's mutations.
func (ix *Index) Snapshot() *Index {
	return &Index{tree: ix.tree.Clone(), opts: ix.opts}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.tree.NumPoints() }

// Points returns a fresh copy of the indexed reference points, in
// reference order: Points()[n.Index] == n.Point for every Neighbor n an
// index answers with. The copy is read back from the tree's arena, so it
// costs O(Len) per call.
func (ix *Index) Points() []Point {
	pts, _ := referencePoints(ix.tree)
	return pts
}

// Update re-populates the index in place with a new frame using the
// paper's incremental tree update (§4.4): the split structure is reused
// and rebalanced locally instead of rebuilt, keeping every bucket within
// [mean/2, 2·mean]. The indexed reference set becomes points; the index
// keeps no reference to the slice. A point with a NaN or infinite
// coordinate is refused with ErrInvalidPoint before anything changes,
// leaving the index as it was. Advance is the form that leaves the index
// unchanged.
func (ix *Index) Update(points []Point) error {
	if err := checkFinite(points); err != nil {
		return err
	}
	ix.tree.UpdateFrame(points, 0, 0)
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

// IngestTiming is the per-phase wall-time breakdown of the most recent
// ingest operation (build, update, or placement).
type IngestTiming = kdtree.IngestTiming

// IngestTiming reports the phase timings of the build or update that
// produced this index's current frame, including how many workers ran.
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
	return ix.tree.MeasureAccuracy(ix.Points(), queries, k, x)
}

// WriteTo serializes the index (tree structure and all indexed points) in
// a versioned binary format; LoadIndex restores it bit-identically.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.tree.WriteTo(w) }

// LoadIndex restores an index saved with WriteTo. The loaded index
// answers every search identically to the saved one and remains fully
// updatable; Advance in ModeRebuild uses the saved bucket size and the
// default seed. A stream whose bucket back-indices do not form an exact
// cover of [0, NumPoints) — out-of-range or duplicated indices from a
// corrupt or truncated dump — is rejected with an error wrapping
// ErrCorruptIndex, and a NaN or infinite coordinate with one wrapping
// ErrInvalidPoint, as every ingest path refuses it.
func LoadIndex(r io.Reader) (*Index, error) {
	tree, err := kdtree.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	ref, err := referencePoints(tree)
	if err != nil {
		return nil, err
	}
	// A dump can carry what no ingest path accepts: refuse it the same way.
	if err := checkFinite(ref); err != nil {
		return nil, err
	}
	return &Index{tree: tree, opts: indexOptions{bucketSize: tree.Config().BucketSize, seed: 1}}, nil
}

// referencePoints reads the tree's points back from its arena into
// reference order, checking that the buckets' back-indices exactly cover
// [0, n): every index in range and none seen twice. With n indices total,
// that pigeonholes into a bijection, so the result is faithful or the
// error wraps ErrCorruptIndex.
func referencePoints(tree *kdtree.Tree) ([]Point, error) {
	n := tree.NumPoints()
	ref := make([]Point, n)
	seen := make([]bool, n)
	var err error
	var pts []Point
	tree.Buckets(func(id int32, _ *kdtree.Bucket) {
		if err != nil {
			return
		}
		pts = tree.AppendBucketPoints(pts[:0], id)
		for i, idx32 := range tree.BucketIndices(id) {
			idx := int(idx32)
			if idx < 0 || idx >= n {
				err = fmt.Errorf("%w: bucket %d holds reference index %d outside [0,%d)",
					ErrCorruptIndex, id, idx, n)
				return
			}
			if seen[idx] {
				err = fmt.Errorf("%w: bucket %d repeats reference index %d (another point would be dropped)",
					ErrCorruptIndex, id, idx)
				return
			}
			seen[idx] = true
			ref[idx] = pts[i]
		}
	})
	return ref, err
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
