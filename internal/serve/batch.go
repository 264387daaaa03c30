package serve

import (
	"context"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/faults"
	"github.com/quicknn/quicknn/internal/obs"
)

// request is one submitted search: a set of query points answered
// together, against a single epoch. A request travels through the
// submission queue whole — the batcher coalesces requests into batches
// but never splits one, so all of a request's queries are answered by
// the same snapshot (per-request epoch consistency).
type request struct {
	//lint:ignore ctxfirst a request carries its submitter's context through the queue so the batch goroutine honors the caller's deadline, in the manner of net/http.Request
	ctx     context.Context
	queries []quicknn.Point
	opts    quicknn.QueryOptions

	// results holds one result region per query. In the k-bounded modes
	// the regions are capacity-capped stride-K views of one flat backing
	// array of len(queries)*K records; ModeRadius (unbounded result
	// counts) leaves them nil to grow per query.
	results [][]quicknn.Neighbor
	// epochID records which snapshot answered the request.
	epochID uint64

	// err is the request's verdict (nil on success), written by the
	// batch goroutine before done closes.
	err error
	// done is closed when the request has been answered or failed.
	done chan struct{}
	// submitted is the obs.MonotonicSeconds submission timestamp.
	submitted float64

	// Flight-recorder state. id is the engine-scoped request id stamped
	// into flight records and exemplars. pickedUp (batcher receive) and
	// dispatched (batch handoff) are written by the single batcher
	// goroutine before the batch goroutine is spawned, so the batch
	// goroutine observes them through the goroutine-creation
	// happens-before edge. batchPoints is the size of the coalesced batch
	// the request rode in.
	id          uint64
	pickedUp    float64
	dispatched  float64
	batchPoints int32
	// degradeLevel is the ladder level admission stamped on the request
	// (written before submit, read by the batch goroutine through the
	// same happens-before edges as pickedUp/dispatched).
	degradeLevel uint8
	// traceHi/traceLo carry the caller's W3C trace id (zero when none),
	// written before submit and read like degradeLevel.
	traceHi uint64
	traceLo uint64
	// execStart is the obs.MonotonicSeconds stamp at which the request's
	// search began (0 when it never ran), and work the summed work of its
	// queries; both are written by the batch goroutine before finish.
	execStart float64
	work      quicknn.QueryStats
}

func newRequest(ctx context.Context, queries []quicknn.Point, opts quicknn.QueryOptions) *request {
	r := &request{
		ctx:       ctx,
		queries:   queries,
		opts:      opts,
		results:   make([][]quicknn.Neighbor, len(queries)),
		done:      make(chan struct{}),
		submitted: obs.MonotonicSeconds(),
	}
	if k := opts.K; opts.Mode != quicknn.ModeRadius && k > 0 {
		backing := make([]quicknn.Neighbor, len(queries)*k)
		for qi := range r.results {
			r.results[qi] = backing[qi*k : qi*k : (qi+1)*k]
		}
	}
	return r
}

// finish completes the request with its verdict: flight record, latency
// exemplar, outcome counter, done. Called exactly once per request.
func (e *Engine) finish(r *request, err error) {
	r.err = err
	now := obs.MonotonicSeconds()
	total := now - r.submitted
	if e.rec {
		e.recordFlight(r, now, total)
	}
	e.m.latency.ObserveWithExemplar(total, r.id, r.traceLo)
	if err != nil {
		e.m.requests.With("error").Inc()
	} else {
		e.m.requests.With("ok").Inc()
	}
	e.inflight.Add(-1)
	close(r.done)
}

// runBatch answers a dispatched batch against its pinned epoch. It takes
// one token of the engine's global worker budget (blocking) and up to
// min(Workers, points) in total without blocking, then runs each request
// as one leaf-grouped Index.QueryBatchInto call across that many
// goroutines. Requests are not merged: each keeps its own options, its
// own context as the call's stop, and its own summed work counters.
func (e *Engine) runBatch(ep *epoch, batch []*request, points int) {
	e.sem <- struct{}{}
	workers := 1
take:
	for workers < e.cfg.Workers && workers < points {
		select {
		case e.sem <- struct{}{}:
			workers++
		default:
			break take
		}
	}
	for _, req := range batch {
		e.runRequest(ep, req, workers)
	}
	for ; workers > 0; workers-- {
		<-e.sem
	}
}

// runRequest answers one request on the batch's epoch. Results land in
// the request's own result regions, so a warm steady state performs no
// per-query allocations.
func (e *Engine) runRequest(ep *epoch, req *request, workers int) {
	e.flt.Inject(faults.WorkerStall)
	ep.san.checkLive(ep, "query")
	if e.rec {
		req.execStart = obs.MonotonicSeconds()
	}
	opts := req.opts
	opts.Workers = workers
	work, err := ep.index.QueryBatchInto(req.ctx, req.queries, opts, req.results)
	req.work = work
	if err == nil {
		e.m.queries.Add(int64(len(req.queries)))
	}
	e.finish(req, err)
}
