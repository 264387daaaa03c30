package quicknn

import "errors"

// The package's error taxonomy. Every error returned by the
// error-returning API surface (BuildIndex, Index.Advance, Index.Update,
// Index.Query, Index.QueryBatch, Pipeline.ProcessCtx, LoadIndex, the
// frame readers)
// either is one of these sentinels, wraps
// one of them (match with errors.Is), or is a context error
// (context.Canceled / context.DeadlineExceeded) propagated unchanged.
var (
	// ErrEmptyInput reports a construction or ingestion call with no
	// points: BuildIndex with an empty reference cloud, or Index.Advance
	// or Pipeline.ProcessCtx with an empty frame.
	ErrEmptyInput = errors.New("quicknn: empty input: no points")

	// ErrInvalidOptions reports construction or query options that are
	// out of domain (negative bucket size, k <= 0, negative radius, an
	// unknown Index.Advance tree mode, ...).
	// Returned errors wrap it with a description of the offending field.
	ErrInvalidOptions = errors.New("quicknn: invalid options")

	// ErrInvalidPoint reports a point with a NaN or infinite coordinate
	// (BuildIndex, Index.Advance, Index.Update, LoadIndex,
	// ReadFrameCSV, ReadFrameBinary, Pipeline.ProcessCtx) or such a query
	// (Index.Query, QueryInto, QueryBatch, QueryBatchInto). Returned
	// errors wrap it with the point's position.
	ErrInvalidPoint = errors.New("quicknn: invalid point: coordinates must be finite")

	// ErrCorruptIndex reports that a serialized index failed validation
	// on load (LoadIndex). Returned errors wrap it with the location and
	// nature of the corruption.
	ErrCorruptIndex = errors.New("quicknn: corrupt index")
)
