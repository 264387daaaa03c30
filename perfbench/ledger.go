package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/kdtree"
	"github.com/quicknn/quicknn/internal/nn"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

// The traced run. After the untraced loop has measured the end-to-end
// figures, two traced loops replay the same steps with the same
// requests: one in-process, which also times the layers below the
// engine on every request and frame, and one against a fresh quicknnd.
// Every span is recorded here, around calls into each layer's public
// functions; nothing inside the program is instrumented.

// ledgerRounds is how many whole rounds each traced loop replays: enough
// for a p99 over at least a thousand requests.
func ledgerRounds(p *plan) int {
	perRound := p.w.reqsPerStep * p.stepsPerRound()
	return (1000 + perRound - 1) / perRound
}

// ns converts benchmark-clock seconds to trace ticks (nanoseconds).
func ns(sec float64) int64 { return int64(sec * 1e9) }

// ms converts seconds to milliseconds.
func ms(sec float64) float64 { return sec * 1000 }

// layerProbe times the layers below the engine on the traced in-process
// loop. Every method is a no-op on a nil probe, so the untraced loop
// runs the same code with none of this work.
type layerProbe struct {
	tr      *obs.Tracer
	twin    *kdtree.Tree // built and updated as the engine's index is
	cfg     kdtree.Config
	workers int
	backing []nn.Neighbor
	results [][]nn.Neighbor
	doSec   []float64 // this step's Engine.Do times, by request

	// Per-request samples, seconds.
	do, queryBatch, approxBatch, exactBatch, serveAdded []float64
	// Work counts of the workload's own search mode.
	scanned, visited, queries float64
	// Per-step samples: seconds, or bytes and objects allocated.
	advanceSec, advanceBytes                    []float64
	ixBuild, ixSnapshot, ixUpdate               []float64
	ixAdvanceBytes, ixAdvanceObjects            []float64
	kdBuild, kdUpdate, kdSplits, kdPlace, kdReb []float64
	bucketMax, step                             []float64
	// Per-step totals of the per-request calls.
	stepDo, stepQueryBatch, stepApprox, stepExact stepSums
}

// stepSums totals one call's durations per step: a layer's share of a
// frame is the median over steps of its per-step total, which, unlike
// count × per-call median, keeps the tail of the calls.
type stepSums struct {
	cur float64
	per []float64
}

func (s *stepSums) add(sec float64) { s.cur += sec }

func (s *stepSums) flush() {
	s.per = append(s.per, s.cur)
	s.cur = 0
}

func newLayerProbe(tr *obs.Tracer, p *plan) *layerProbe {
	cfg := kdtree.Config{BucketSize: bucketSize}
	workers := runtime.GOMAXPROCS(0)
	return &layerProbe{
		tr: tr, cfg: cfg, workers: workers,
		backing: make([]nn.Neighbor, p.w.reqPoints*knn),
		results: make([][]nn.Neighbor, p.w.reqPoints),
		doSec:   make([]float64, p.w.reqsPerStep),
	}
}

// startDrive builds the twin for a drive visit, as the fresh engine
// builds its first epoch.
func (lp *layerProbe) startDrive(p *plan, d int) {
	if lp == nil {
		return
	}
	lp.twin = kdtree.Build(clonePoints(p.drives[d][0]), lp.cfg, rand.New(rand.NewSource(engineSeed)))
}

func clonePoints(pts []quicknn.Point) []quicknn.Point { return append([]quicknn.Point(nil), pts...) }

// span records one layer call on the layer's track.
func (lp *layerProbe) span(layer, name string, start, sec float64, s stepID, r int) {
	args := map[string]int64{"step": int64(s.seq), "drive": int64(s.drive)}
	if r >= 0 {
		args["request"] = int64(r)
	}
	lp.tr.Span(layer, name, ns(start), ns(start+sec), args)
}

// request records an answered Engine.Do.
func (lp *layerProbe) request(s stepID, r int, a answer) {
	if lp == nil {
		return
	}
	lp.span("serve", "Engine.Do", a.start, a.sec, s, r)
	lp.do = append(lp.do, a.sec)
	lp.stepDo.add(a.sec)
	lp.doSec[r] = a.sec
}

// search replays the step's requests one layer down (Index.QueryBatch on
// the epoch that answered them) and two layers down (the twin tree's
// batch searches, both modes), still before the frame advances.
func (lp *layerProbe) search(ctx context.Context, p *plan, s stepID, ix *quicknn.Index) {
	if lp == nil {
		return
	}
	for r := 0; r < p.w.reqsPerStep; r++ {
		q := p.request(s, r)
		start := now()
		_, err := ix.QueryBatch(ctx, q, p.opts())
		sec := now() - start
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe Index.QueryBatch:", err)
		}
		lp.span("index", "Index.QueryBatch", start, sec, s, r)
		lp.queryBatch = append(lp.queryBatch, sec)
		lp.stepQueryBatch.add(sec)
		lp.serveAdded = append(lp.serveAdded, lp.doSec[r]-sec)
		for _, exact := range []bool{false, true} {
			for i := range lp.results {
				lp.results[i] = lp.backing[i*knn : i*knn : (i+1)*knn]
			}
			start := now()
			var st kdtree.SearchStats
			name := "SearchApproxBatch"
			if exact {
				name = "SearchExactBatch"
				st, _ = lp.twin.SearchExactBatch(q, knn, lp.workers, lp.results, nil)
			} else {
				st, _ = lp.twin.SearchApproxBatch(q, knn, lp.workers, lp.results, nil)
			}
			sec := now() - start
			lp.span("kdtree", name, start, sec, s, r)
			if exact {
				lp.exactBatch = append(lp.exactBatch, sec)
				lp.stepExact.add(sec)
			} else {
				lp.approxBatch = append(lp.approxBatch, sec)
				lp.stepApprox.add(sec)
			}
			if exact == (p.w.mode == quicknn.ModeExact) {
				lp.scanned += float64(st.PointsScanned)
				lp.visited += float64(st.BucketsVisited)
				lp.queries += float64(len(q))
			}
		}
	}
}

// heapAllocs reads the process's cumulative heap allocations (bytes,
// objects). runtime/metrics would not stop the world, but its object
// count lags for small size classes; ReadMemStats is exact, and every
// call sits outside a timed section.
func heapAllocs() [2]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return [2]float64{float64(ms.TotalAlloc), float64(ms.Mallocs)}
}

// allocStart snapshots the allocation counters before Engine.Advance.
func (lp *layerProbe) allocStart() [2]float64 {
	if lp == nil {
		return [2]float64{}
	}
	return heapAllocs()
}

// advance records an Engine.Advance call and what it allocated.
func (lp *layerProbe) advance(s stepID, start, sec float64, before [2]float64) {
	if lp == nil {
		return
	}
	after := heapAllocs()
	lp.span("serve", "Engine.Advance", start, sec, s, -1)
	lp.advanceSec = append(lp.advanceSec, sec)
	lp.advanceBytes = append(lp.advanceBytes, after[0]-before[0])
}

// ingest replays the step's frame advance one layer down (the Index
// operations Advance performs in either maintenance mode, on a snapshot
// of the epoch it replaced) and two layers down (the twin tree), and
// closes the step's span.
func (lp *layerProbe) ingest(p *plan, s stepID, prev *quicknn.Index, stepStart, stepSec float64) {
	if lp == nil {
		return
	}
	lp.span("bench", "step", stepStart, stepSec, s, -1)
	lp.step = append(lp.step, stepSec)
	for _, sums := range []*stepSums{&lp.stepDo, &lp.stepQueryBatch, &lp.stepApprox, &lp.stepExact} {
		sums.flush()
	}
	cur := p.frame(s)

	a0 := heapAllocs()
	start := now()
	snap := prev.Snapshot()
	mid := now()
	snap.Update(cur)
	end := now()
	a1 := heapAllocs()
	lp.span("index", "Index.Snapshot", start, mid-start, s, -1)
	lp.span("index", "Index.Update", mid, end-mid, s, -1)
	lp.ixSnapshot = append(lp.ixSnapshot, mid-start)
	lp.ixUpdate = append(lp.ixUpdate, end-mid)

	start = now()
	_, err := quicknn.BuildIndex(cur, quicknn.WithBucketSize(bucketSize), quicknn.WithSeed(engineSeed))
	sec := now() - start
	a2 := heapAllocs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe BuildIndex:", err)
	}
	lp.span("index", "BuildIndex", start, sec, s, -1)
	lp.ixBuild = append(lp.ixBuild, sec)
	if p.w.maint == serve.MaintIncremental {
		lp.ixAdvanceBytes = append(lp.ixAdvanceBytes, a1[0]-a0[0])
		lp.ixAdvanceObjects = append(lp.ixAdvanceObjects, a1[1]-a0[1])
	} else {
		lp.ixAdvanceBytes = append(lp.ixAdvanceBytes, a2[0]-a1[0])
		lp.ixAdvanceObjects = append(lp.ixAdvanceObjects, a2[1]-a1[1])
	}

	// The twin: in incremental mode it is updated in place and a fresh
	// build is timed on the side; in rebuild mode the retiring twin is
	// updated on the side and the fresh build becomes the twin.
	start = now()
	fresh := kdtree.Build(clonePoints(cur), lp.cfg, rand.New(rand.NewSource(engineSeed)))
	buildSec := now() - start
	lp.span("kdtree", "Build", start, buildSec, s, -1)
	built := fresh.LastIngest()
	start = now()
	lp.twin.UpdateFrame(clonePoints(cur), 0, 0)
	updateSec := now() - start
	lp.span("kdtree", "UpdateFrame", start, updateSec, s, -1)
	updated := lp.twin.LastIngest()
	lp.kdBuild = append(lp.kdBuild, buildSec)
	lp.kdUpdate = append(lp.kdUpdate, updateSec)
	lp.kdSplits = append(lp.kdSplits, built.SplitsSeconds)
	lp.kdReb = append(lp.kdReb, updated.RebalanceSeconds)
	if p.w.maint == serve.MaintIncremental {
		lp.kdPlace = append(lp.kdPlace, updated.PlaceSeconds)
	} else {
		lp.kdPlace = append(lp.kdPlace, built.PlaceSeconds)
		lp.twin = fresh
	}
	lp.bucketMax = append(lp.bucketMax, float64(lp.twin.Stats().Max))
}

// wireTrace records the traced wire loop.
type wireTrace struct {
	tr                 *obs.Tracer
	search, post, step []float64
	stepSearch         stepSums
}

func (wt *wireTrace) request(s stepID, r int, start, sec float64) {
	if wt == nil {
		return
	}
	wt.tr.Span("quicknnd", "POST /v1/search", ns(start), ns(start+sec),
		map[string]int64{"step": int64(s.seq), "drive": int64(s.drive), "request": int64(r)})
	wt.search = append(wt.search, sec)
	wt.stepSearch.add(sec)
}

func (wt *wireTrace) frame(s stepID, start, sec, stepStart, stepSec float64) {
	if wt == nil {
		return
	}
	args := map[string]int64{"step": int64(s.seq), "drive": int64(s.drive)}
	wt.tr.Span("quicknnd", "POST /v1/frame", ns(start), ns(start+sec), args)
	wt.tr.Span("bench", "wire step", ns(stepStart), ns(stepStart+stepSec), args)
	wt.post = append(wt.post, sec)
	wt.step = append(wt.step, stepSec)
	wt.stepSearch.flush()
}

// heapBytesPerPoint is the live heap a freshly built tree holds per
// point, measured between forced collections; the median of three.
func heapBytesPerPoint(frame []quicknn.Point) float64 {
	var per []float64
	for i := 0; i < 3; i++ {
		pts := clonePoints(frame)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tree := kdtree.Build(pts, kdtree.Config{BucketSize: bucketSize}, rand.New(rand.NewSource(engineSeed)))
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tree)
		per = append(per, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(len(pts)))
	}
	return median(per)
}

// traceLayers runs the two traced loops, prints the ledger next to the
// untraced end-to-end figures, writes the spans, and returns the
// per-layer metrics.
func traceLayers(ctx context.Context, o options, p *plan, e2e runStats, t *tally, stdout io.Writer) (map[string]metric, error) {
	tr := obs.NewTracer("perfbench " + p.w.name)
	rounds := ledgerRounds(p)

	lp := newLayerProbe(tr, p)
	if err := driveLoop(ctx, p, rounds, 0, t, &samples{}, &runStats{}, lp); err != nil {
		return nil, err
	}
	wt := &wireTrace{tr: tr}
	if err := wireLoop(ctx, o, p, rounds, 0, false, t, &samples{}, &runStats{}, wt); err != nil {
		return nil, err
	}

	l := ledger{w: p.w, e2e: e2e.metrics(), lp: lp, wt: wt, steps: float64(e2e.steps)}
	l.heapPerPoint = heapBytesPerPoint(p.drives[0][0])
	m := l.metrics(e2e)
	l.print(stdout, o.seed, m)

	path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-seed%d.json", p.w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	err = tr.WriteChrome(f, 1000)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", tr.SpanCount(), path)
	return m, nil
}

// ledger derives the per-layer metrics from the traced loops.
type ledger struct {
	w            workload
	e2e          map[string]metric
	lp           *layerProbe
	wt           *wireTrace
	steps        float64
	heapPerPoint float64
}

// ingestOps names the index and kdtree operations the workload's
// maintenance mode runs per frame, with their median seconds.
func (l ledger) ingestOps() (ixName string, ixSec float64, kdName string, kdSec float64) {
	if l.w.maint == serve.MaintIncremental {
		return "Index.Snapshot+Update", median(l.lp.ixSnapshot) + median(l.lp.ixUpdate),
			"kdtree UpdateFrame", median(l.lp.kdUpdate)
	}
	return "BuildIndex", median(l.lp.ixBuild), "kdtree Build", median(l.lp.kdBuild)
}

// searchOp is the twin batch search of the workload's mode: its name,
// its name and per-call median in seconds.
func (l ledger) searchOp() (string, float64) {
	if l.w.mode == quicknn.ModeExact {
		return "kdtree SearchExactBatch", median(l.lp.exactBatch)
	}
	return "kdtree SearchApproxBatch", median(l.lp.approxBatch)
}

// perFrame is the median per-step total of one caller's requests.
func (l ledger) perFrame(s stepSums) float64 { return median(s.per) / float64(l.w.callers) }

// top returns the traced loop's own end-to-end medians, measured on the
// calls into the top layer the workload drives (the engine in process,
// quicknnd over the wire): frame time, the per-step total of one
// caller's requests plus the frame's ingest, and request latency.
func (l ledger) top() (frame, layers, latency float64) {
	if l.w.wire {
		return median(l.wt.step), l.perFrame(l.wt.stepSearch) + median(l.wt.post), median(l.wt.search)
	}
	return median(l.lp.step), l.perFrame(l.lp.stepDo) + median(l.lp.advanceSec), median(l.lp.do)
}

func (l ledger) metrics(e2e runStats) map[string]metric {
	lp, wt := l.lp, l.wt
	const mb = 1 << 20
	doP50, advP50 := median(lp.do), median(lp.advanceSec)
	searchP50, postP50 := median(wt.search), median(wt.post)
	frame, layers, latency := l.top()
	_, kdSearch := l.searchOp()
	_, _, _, kdIngest := l.ingestOps()
	pct := func(part, whole float64) float64 { return 100 * part / whole }

	return map[string]metric{
		"kdtree.approx_batch_ms":           {ms(median(lp.approxBatch)), "ms"},
		"kdtree.exact_batch_ms":            {ms(median(lp.exactBatch)), "ms"},
		"kdtree.build_ms":                  {ms(median(lp.kdBuild)), "ms"},
		"kdtree.update_ms":                 {ms(median(lp.kdUpdate)), "ms"},
		"kdtree.splits_ms":                 {ms(median(lp.kdSplits)), "ms"},
		"kdtree.place_ms":                  {ms(median(lp.kdPlace)), "ms"},
		"kdtree.rebalance_ms":              {ms(median(lp.kdReb)), "ms"},
		"kdtree.points_scanned_per_query":  {lp.scanned / lp.queries, "count"},
		"kdtree.buckets_visited_per_query": {lp.visited / lp.queries, "count"},
		"kdtree.bucket_max":                {median(lp.bucketMax), "count"},
		"kdtree.heap_bytes_per_point":      {l.heapPerPoint, "B"},
		"index.query_batch_ms":             {ms(median(lp.queryBatch)), "ms"},
		"index.build_ms":                   {ms(median(lp.ixBuild)), "ms"},
		"index.snapshot_ms":                {ms(median(lp.ixSnapshot)), "ms"},
		"index.update_ms":                  {ms(median(lp.ixUpdate)), "ms"},
		"index.advance_alloc_mb":           {median(lp.ixAdvanceBytes) / mb, "MB"},
		"index.advance_allocs":             {median(lp.ixAdvanceObjects), "count"},
		"serve.do_ms_p50":                  {ms(doP50), "ms"},
		"serve.do_ms_p99":                  {ms(quantile(lp.do, 0.99)), "ms"},
		"serve.added_ms_per_request":       {ms(median(lp.serveAdded)), "ms"},
		"serve.advance_ms_p50":             {ms(advP50), "ms"},
		"serve.advance_alloc_mb":           {median(lp.advanceBytes) / mb, "MB"},
		"quicknnd.search_ms_p50":           {ms(searchP50), "ms"},
		"quicknnd.search_ms_p99":           {ms(quantile(wt.search, 0.99)), "ms"},
		"quicknnd.added_ms_per_request":    {ms(searchP50 - doP50), "ms"},
		"quicknnd.frame_post_ms_p50":       {ms(postP50), "ms"},
		"quicknnd.frame_added_ms":          {ms(postP50 - advP50), "ms"},
		"go.alloc_mb_per_frame":            {e2e.allocBytes / mb / l.steps, "MB"},
		"go.gc_cycles_per_frame":           {e2e.gcCycles / l.steps, "count"},
		"go.gc_pause_ms_per_frame":         {ms(e2e.gcPauseSec) / l.steps, "ms"},
		"ledger.frame_traced_ms":           {ms(frame), "ms"},
		"ledger.frame_layers_ms":           {ms(layers), "ms"},
		"ledger.frame_unexplained_pct":     {pct(frame-layers, frame), "%"},
		"ledger.kdtree_share_frame_pct":    {pct(l.kdStep()+kdIngest, frame), "%"},
		"ledger.kdtree_share_latency_pct":  {pct(kdSearch, latency), "%"},
		"trace.overhead_pct":               {pct(ms(frame)-l.e2e["frame_ms_p50"].Value, l.e2e["frame_ms_p50"].Value), "%"},
	}
}

// kdStep is the twin search's per-step total for one caller.
func (l ledger) kdStep() float64 {
	if l.w.mode == quicknn.ModeExact {
		return l.perFrame(l.lp.stepExact)
	}
	return l.perFrame(l.lp.stepApprox)
}

// print writes the ledger: each layer's median next to the traced
// loop's end-to-end median it should account for, and the traced
// figures against the untraced ones. Frame rows are per-step totals of
// one caller's requests plus the frame's ingest. Rows below quicknnd come
// from the in-process loop.
func (l ledger) print(w io.Writer, seed int64, m map[string]metric) {
	lp, wt := l.lp, l.wt
	frame, layers, latency := l.top()
	n := l.w.reqsPerStep / l.w.callers
	kdName, kdSearch := l.searchOp()
	ixIngName, ixIng, kdIngName, kdIng := l.ingestOps()
	row := func(indent int, label string, v, whole float64) {
		fmt.Fprintf(w, "  %*s%-*s %9.3f ms %6.1f%%\n", indent, "", 48-indent, label, ms(v), 100*v/whole)
	}
	fmt.Fprintf(w, "ledger %s seed=%d (medians; shares of the traced end-to-end figure)\n", l.w.name, seed)
	fmt.Fprintf(w, "  %-48s %9.3f ms\n", "frame_ms_p50, untraced run", l.e2e["frame_ms_p50"].Value)
	row(0, "frame_ms_p50, traced run", frame, frame)
	ind := 2
	if l.w.wire {
		row(ind, fmt.Sprintf("%d x quicknnd POST /v1/search", n), l.perFrame(wt.stepSearch), frame)
		row(ind, "quicknnd POST /v1/frame", median(wt.post), frame)
		ind += 2
	}
	row(ind, fmt.Sprintf("%d x serve Engine.Do", n), l.perFrame(lp.stepDo), frame)
	row(ind+2, fmt.Sprintf("%d x index Index.QueryBatch", n), l.perFrame(lp.stepQueryBatch), frame)
	row(ind+4, fmt.Sprintf("%d x %s", n, kdName), l.kdStep(), frame)
	row(ind, "serve Engine.Advance", median(lp.advanceSec), frame)
	row(ind+2, "index "+ixIngName, ixIng, frame)
	row(ind+4, kdIngName, kdIng, frame)
	row(0, "top layer sum", layers, frame)
	fmt.Fprintf(w, "  %-48s %9.3f ms\n", "latency_ms_p50, untraced run", l.e2e["latency_ms_p50"].Value)
	ind = 0
	if l.w.wire {
		row(ind, "quicknnd POST /v1/search, traced run", median(wt.search), latency)
		ind += 2
	}
	row(ind, "serve Engine.Do", median(lp.do), latency)
	row(ind+2, "index Index.QueryBatch", median(lp.queryBatch), latency)
	row(ind+4, kdName, kdSearch, latency)
	fmt.Fprintf(w, "  unexplained frame time %.1f%%; traced frame median %+.1f%% against untraced\n",
		m["ledger.frame_unexplained_pct"].Value, m["trace.overhead_pct"].Value)
}
