package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/obs"
)

// taggedFrame returns n points scattered in the XY plane whose Z
// coordinate is the frame tag — every point of frame f carries Z == f,
// so any neighbor result identifies the epoch that produced it.
func taggedFrame(f, n int, rng *rand.Rand) []quicknn.Point {
	pts := make([]quicknn.Point, n)
	for i := range pts {
		pts[i] = quicknn.Point{
			X: rng.Float32() * 100,
			Y: rng.Float32() * 100,
			Z: float32(f),
		}
	}
	return pts
}

func mustAdvance(t *testing.T, e *Engine, f, n int, rng *rand.Rand) FrameInfo {
	t.Helper()
	info, err := e.Advance(context.Background(), taggedFrame(f, n, rng))
	if err != nil {
		t.Fatalf("Advance frame %d: %v", f, err)
	}
	return info
}

// TestConcurrentQueriesAcrossFrameSwaps is the epoch-snapshot race test:
// >= 4 concurrent query workers run against the engine while the frame
// loop performs >= 10 epoch swaps. Every request must succeed (zero
// dropped) and every request's neighbors must carry a single frame tag
// (zero cross-epoch results) — readers never observe a torn epoch.
func TestConcurrentQueriesAcrossFrameSwaps(t *testing.T) {
	const (
		queryWorkers = 6
		frameSwaps   = 14
		framePoints  = 1500
	)
	sink := obs.NewSink("serve-test")
	e := NewEngine(Config{
		QueueDepth:  4096,
		MaxBatch:    32,
		MaxWindow:   500 * time.Microsecond,
		Workers:     4,
		Maintenance: MaintRebuild,
		Obs:         sink,
	})
	rng := rand.New(rand.NewSource(7))
	mustAdvance(t, e, 1, framePoints, rng)

	var (
		stopQueries atomic.Bool
		served      atomic.Int64
		wg          sync.WaitGroup
	)
	errs := make(chan error, queryWorkers)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for !stopQueries.Load() {
				queries := make([]quicknn.Point, 8)
				for i := range queries {
					queries[i] = quicknn.Point{X: qrng.Float32() * 100, Y: qrng.Float32() * 100}
				}
				res, err := e.Do(context.Background(), Submission{Queries: queries, Opts: quicknn.QueryOptions{K: 4}})
				if err != nil {
					errs <- err
					return
				}
				// Per-request epoch consistency: every neighbor of every
				// query in this request must carry the same frame tag.
				tag := float32(-1)
				for _, nbrs := range res.Results {
					if len(nbrs) == 0 {
						errs <- errors.New("empty neighbor list from a populated index")
						return
					}
					for _, nb := range nbrs {
						if tag < 0 {
							tag = nb.Point.Z
						}
						if nb.Point.Z != tag {
							errs <- errors.New("cross-epoch result: neighbors from two frames in one request")
							return
						}
					}
				}
				served.Add(1)
			}
		}(int64(100 + w))
	}

	frameRng := rand.New(rand.NewSource(8))
	for f := 2; f <= frameSwaps+1; f++ {
		mustAdvance(t, e, f, framePoints, frameRng)
		time.Sleep(2 * time.Millisecond) // let queries interleave with the swap
	}

	stopQueries.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query worker failed: %v", err)
	}
	if got := served.Load(); got == 0 {
		t.Fatal("no queries served during the swap storm")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// After the drain, only the current epoch may remain live: every
	// superseded epoch must have been retired by its last reader.
	snap := sink.Metrics.Snapshot()
	if fam, ok := snap.Find("quicknn_serve_epoch_live"); ok {
		if s, ok := fam.Find(); ok && s.Gauge != 1 {
			t.Errorf("quicknn_serve_epoch_live = %g after drain, want 1", s.Gauge)
		}
	} else {
		t.Error("quicknn_serve_epoch_live family missing")
	}
	for _, fam := range []string{"quicknn_serve_batch_size", "quicknn_serve_latency_seconds"} {
		if _, ok := snap.Find(fam); !ok {
			t.Errorf("metric family %s missing from snapshot", fam)
		}
	}
}

// TestBackpressureShedsTyped fills the bounded queue with no batcher
// draining it (white-box: the engine is built without starting the
// batcher) and checks the typed ErrOverloaded verdict.
func TestBackpressureShedsTyped(t *testing.T) {
	cfg := Config{QueueDepth: 2}.withDefaults()
	e := &Engine{
		cfg:   cfg,
		m:     newMetrics(nil),
		queue: make(chan *request, 2),
		sem:   make(chan struct{}, cfg.Workers),
		stop:  make(chan struct{}),
		live:  make(map[uint64]struct{}),
	}
	q := []quicknn.Point{{X: 1}}
	opts := quicknn.QueryOptions{K: 1}
	for i := 0; i < 2; i++ {
		if err := e.submit(newRequest(context.Background(), q, opts)); err != nil {
			t.Fatalf("submit %d into empty queue: %v", i, err)
		}
	}
	err := e.submit(newRequest(context.Background(), q, opts))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into full queue = %v, want ErrOverloaded", err)
	}
}

// TestDeadlineSurfacesTyped parks a request inside a long batch window
// and checks that its deadline verdict is the typed context error.
func TestDeadlineSurfacesTyped(t *testing.T) {
	e := NewEngine(Config{
		MinWindow: 2 * time.Second, // park the batcher's gather phase
		MaxWindow: 4 * time.Second,
		MaxBatch:  1 << 20,
	})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(3))
	mustAdvance(t, e, 1, 300, rng)

	// First request arms the window; it will sit in gather until the
	// deadline fires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Do(ctx, Submission{Queries: []quicknn.Point{{X: 1, Y: 1}}, Opts: quicknn.QueryOptions{K: 2}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do under expired deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline verdict took %v, should return at the deadline, not the window", elapsed)
	}
}

// TestQueryBeforeFirstFrame checks the typed ErrNoIndex verdict.
func TestQueryBeforeFirstFrame(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	_, err := e.Do(context.Background(), Submission{Queries: []quicknn.Point{{}}, Opts: quicknn.QueryOptions{K: 1}})
	if !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Do before Advance = %v, want ErrNoIndex", err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("Epoch before Advance = %d, want 0", e.Epoch())
	}
	if e.Index() != nil {
		t.Fatal("Index before Advance should be nil")
	}
}

// TestClosedEngineRejectsTyped checks submissions and advances after
// Close fail with ErrClosed, and that Close is idempotent.
func TestClosedEngineRejectsTyped(t *testing.T) {
	e := NewEngine(Config{})
	rng := rand.New(rand.NewSource(5))
	mustAdvance(t, e, 1, 200, rng)
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Do(context.Background(), Submission{Queries: []quicknn.Point{{}}, Opts: quicknn.QueryOptions{K: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Advance(context.Background(), taggedFrame(2, 10, rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Advance after Close = %v, want ErrClosed", err)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled from its
// n-th poll on, so a request can be cancelled deterministically in the
// middle of its batch call. Done never closes: the verdict reaches the
// caller through the request, not through Do's select.
type cancelAfter struct {
	n     int64
	polls atomic.Int64
	done  chan struct{}
}

func newCancelAfter(n int64) *cancelAfter {
	return &cancelAfter{n: n, done: make(chan struct{})}
}

func (c *cancelAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfter) Value(any) any               { return nil }
func (c *cancelAfter) Done() <-chan struct{}       { return c.done }

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// flightRecord returns the engine's flight record for request id.
func flightRecord(t *testing.T, e *Engine, id uint64) obs.FlightRecord {
	t.Helper()
	for _, rec := range e.FlightRecords() {
		if rec.ID == id {
			return rec
		}
	}
	t.Fatalf("no flight record for request %d", id)
	return obs.FlightRecord{}
}

// matchDirect checks one answered request against per-query
// Index.QueryInto on the epoch that answered it, under the options the
// degrade ladder left it with: the neighbors must be byte-equal and the
// flight record's four work counters the sums of the per-query stats.
func matchDirect(t *testing.T, e *Engine, queries []quicknn.Point, opts quicknn.QueryOptions, res QueryResult) {
	t.Helper()
	if res.Epoch != e.Epoch() {
		t.Fatalf("answered by epoch %d, current is %d", res.Epoch, e.Epoch())
	}
	if e.deg != nil {
		opts, _ = e.deg.Config().Apply(opts, res.Level)
	}
	ix := e.Index()
	sc := quicknn.NewScratch()
	var sum quicknn.QueryStats
	for qi, q := range queries {
		want, err := ix.QueryInto(context.Background(), q, opts, sc, nil)
		if err != nil {
			t.Fatalf("QueryInto: %v", err)
		}
		st := sc.LastStats()
		sum.TraversalSteps += st.TraversalSteps
		sum.PointsScanned += st.PointsScanned
		sum.BucketsVisited += st.BucketsVisited
		sum.CandInserts += st.CandInserts
		got := res.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
	rec := flightRecord(t, e, res.ID)
	if rec.TraversalSteps != uint32(sum.TraversalSteps) || rec.PointsScanned != uint32(sum.PointsScanned) ||
		rec.BucketsVisited != uint32(sum.BucketsVisited) || rec.CandInserts != uint32(sum.CandInserts) {
		t.Fatalf("flight record work %+v, want per-query sums %+v", rec, sum)
	}
}

// TestQueryMatchesDirectSearch checks that the engine, which runs each
// request as one leaf-grouped batch call, answers exactly what per-query
// Index.QueryInto answers on the same epoch: in every mode, and for
// requests the degrade ladder rewrote. The flight record's work counters
// must equal the per-query sums. A last leg cancels one request in the
// middle of its batch call while others run on the same epoch: it alone
// fails.
func TestQueryMatchesDirectSearch(t *testing.T) {
	newMatchEngine := func(dcfg degrade.Config) *Engine {
		sink := obs.NewSink("match-test")
		sink.Flight = obs.NewFlightRecorder(256)
		e := NewEngine(Config{Maintenance: MaintIncremental, Workers: 4, Obs: sink, Degrade: dcfg})
		t.Cleanup(func() { e.Close(context.Background()) })
		rng := rand.New(rand.NewSource(11))
		mustAdvance(t, e, 1, 800, rng)
		mustAdvance(t, e, 2, 800, rng) // exercise the incremental snapshot path
		return e
	}
	plain := newMatchEngine(degrade.Config{Disabled: true})
	// Every request observes an over-budget tail and climbs one rung; the
	// tail signal alone plateaus at clamp-k.
	ladder := newMatchEngine(degrade.Config{TailBudget: 1e-12, StepUp: 1e-9, StepDown: 1e9})
	// 200 queries span several 16-query worker runs, so the batch call
	// fans out over the engine's four workers.
	queries := taggedFrame(0, 200, rand.New(rand.NewSource(12)))
	exact := quicknn.QueryOptions{K: 16, Mode: quicknn.ModeExact}

	for _, tc := range []struct {
		name string
		e    *Engine
		opts quicknn.QueryOptions
		acts degrade.Actions // rewrites the answered request must carry
	}{
		{"approx", plain, quicknn.QueryOptions{K: 3}, 0},
		{"exact", plain, quicknn.QueryOptions{K: 5, Mode: quicknn.ModeExact}, 0},
		{"checks", plain, quicknn.QueryOptions{K: 4, Mode: quicknn.ModeChecks, Checks: 300}, 0},
		{"radius", plain, quicknn.QueryOptions{Mode: quicknn.ModeRadius, Radius: 6}, 0},
		{"force-checks", ladder, exact, degrade.ActForceChecks},
		{"clamp-k", ladder, exact, degrade.ActForceChecks | degrade.ActClampK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Climb the ladder until the request carries the wanted
			// rewrites, checking every answer on the way.
			for attempt := 0; ; attempt++ {
				res, err := tc.e.Do(context.Background(), Submission{Queries: queries, Opts: tc.opts})
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				matchDirect(t, tc.e, queries, tc.opts, res)
				if res.Actions == tc.acts {
					break
				}
				if attempt == 5 {
					t.Fatalf("ladder never applied actions %b (last %b at %v)", tc.acts, res.Actions, res.Level)
				}
			}
		})
	}

	t.Run("cancel-mid-batch", func(t *testing.T) {
		e := plain
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				opts := quicknn.QueryOptions{K: 4, Mode: quicknn.QueryMode(w % 2)} // approx and exact
				for i := 0; i < 5; i++ {
					res, err := e.Do(context.Background(), Submission{Queries: queries, Opts: opts})
					if err != nil {
						t.Errorf("concurrent request: %v", err)
						return
					}
					matchDirect(t, e, queries, opts, res)
				}
			}(w)
		}
		// Do polls once and the batch call once on entry; the tenth poll
		// falls inside the exact searches' per-group and per-bucket polls.
		ctx := newCancelAfter(10)
		_, err := e.Do(ctx, Submission{Queries: queries, Opts: exact})
		wg.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request = %v, want context.Canceled", err)
		}
		var rec obs.FlightRecord
		for _, r := range e.FlightRecords() {
			if r.Outcome == obs.OutcomeCanceled {
				rec = r
			}
		}
		if rec.ID == 0 || rec.BucketsVisited == 0 {
			t.Fatalf("cancelled request not recorded as abandoned mid-batch: %+v", rec)
		}
	})
}

// TestLoneCallerNotHeldForMaxWindow pins the adaptive window's idle
// fallback: a closed-loop caller whose requests are far below MaxBatch
// can never fill half a batch within MaxWindow, so its requests run
// after MinWindow instead of waiting out MaxWindow every time.
func TestLoneCallerNotHeldForMaxWindow(t *testing.T) {
	const maxWindow = 100 * time.Millisecond
	e := NewEngine(Config{MaxWindow: maxWindow, MaxBatch: 1 << 20})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(13))
	mustAdvance(t, e, 1, 300, rng)

	const requests = 10
	start := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, 8, rng), Opts: quicknn.QueryOptions{K: 2}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Held for MaxWindow, the loop would take at least 900ms.
	if elapsed := time.Since(start); elapsed > requests*maxWindow/2 {
		t.Fatalf("%d lone requests took %v: held for the %v MaxWindow", requests, elapsed, maxWindow)
	}
	if w := math.Float64frombits(e.curWindow.Load()); w != e.cfg.MinWindow.Seconds() {
		t.Fatalf("window = %gs, want MinWindow %gs", w, e.cfg.MinWindow.Seconds())
	}
}

// TestAdvanceRejectsEmptyFrame checks the typed empty-input verdict.
func TestAdvanceRejectsEmptyFrame(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	if _, err := e.Advance(context.Background(), nil); !errors.Is(err, quicknn.ErrEmptyInput) {
		t.Fatalf("Advance(nil) = %v, want ErrEmptyInput", err)
	}
}

// TestCloseDrainsAcceptedWork submits a request and races Close against
// it: the accepted request must still be answered, not dropped.
func TestCloseDrainsAcceptedWork(t *testing.T) {
	e := NewEngine(Config{MinWindow: 20 * time.Millisecond, MaxWindow: 40 * time.Millisecond, MaxBatch: 1 << 20})
	rng := rand.New(rand.NewSource(21))
	mustAdvance(t, e, 1, 300, rng)

	type answer struct {
		res [][]quicknn.Neighbor
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := e.Do(context.Background(), Submission{Queries: []quicknn.Point{{X: 2, Y: 3}}, Opts: quicknn.QueryOptions{K: 2}})
		got <- answer{res.Results, err}
	}()
	time.Sleep(5 * time.Millisecond) // let the request reach the queue/gather
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a := <-got
	if a.err != nil {
		t.Fatalf("accepted request dropped during drain: %v", a.err)
	}
	if len(a.res) != 1 || len(a.res[0]) == 0 {
		t.Fatalf("drained request answered with %d/%v results", len(a.res), a.res)
	}
}
