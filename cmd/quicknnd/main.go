// Command quicknnd serves micro-batched kNN search over HTTP.
//
// The daemon wraps internal/serve.Engine: POST /v1/frame advances the
// epoch-snapshot index to the next frame, POST /v1/search answers a
// query batch against the current epoch, GET /v1/metrics exposes the obs
// registry in Prometheus text format, and GET /v1/readyz reports
// readiness. See docs/serving.md for the full API.
//
// With -selftest the daemon binds 127.0.0.1:0, drives itself through a
// frame + search + scrape cycle with real HTTP requests, writes the
// /v1/metrics scrape to -metrics-out, and exits non-zero on any failure —
// this is the `make serve-demo` entry point.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/faults"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/obs/prof"
	"github.com/quicknn/quicknn/internal/obs/slo"
	"github.com/quicknn/quicknn/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		bucket     = flag.Int("bucket", 256, "k-d tree leaf bucket size")
		queue      = flag.Int("queue", 256, "submission queue depth (backpressure bound)")
		batch      = flag.Int("batch", 64, "max queries coalesced into one batch")
		window     = flag.Duration("window", 2*time.Millisecond, "max micro-batch gather window")
		workers    = flag.Int("workers", 0, "batch worker budget (0 = GOMAXPROCS)")
		ingestW    = flag.Int("ingest-workers", 0, "frame-ingest worker budget (0 = GOMAXPROCS, 1 = one worker)")
		seed       = flag.Int64("seed", 1, "subsample RNG seed")
		mode       = flag.String("maintenance", "rebuild", "frame maintenance: rebuild|static|incremental")
		readyFile  = flag.String("ready-file", "", "write the base URL here once listening")
		selftest   = flag.Bool("selftest", false, "run the built-in HTTP smoke cycle and exit")
		metricsOut = flag.String("metrics-out", "", "selftest: write the /v1/metrics scrape to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty = disabled")

		flightSize = flag.Int("flight", 1024, "flight-recorder ring capacity in records (0 = disabled)")
		slowlog    = flag.Int("slowlog", 64, "slowlog ring capacity for tail-promoted requests (0 = disabled)")
		tailQ      = flag.Float64("tail-quantile", 0.99, "latency quantile above which requests are promoted to the slowlog")
		runSample  = flag.Duration("runtime-sample", 0, "background Go runtime stats sampling period (0 = sample at /v1/metrics scrape only)")

		sloSpec     = flag.String("slo", "", "SLO objectives evaluated in-process, e.g. 'latency:target=5ms,ratio=0.99;errors:ratio=0.999' (docs/observability.md)")
		sloInterval = flag.Duration("slo-interval", time.Second, "SLO evaluation tick period")
		profDir     = flag.String("profile-dir", "", "continuous profiling: write periodic cpu/heap/mutex pprof snapshots into this directory (empty = disabled)")
		profEvery   = flag.Duration("profile-interval", time.Minute, "continuous profiling capture period")
		profKeep    = flag.Int("profile-keep", 8, "continuous profiling: snapshots kept per profile kind")

		degradeOn  = flag.Bool("degrade", true, "adaptive degrade ladder: serve cheaper answers under pressure before shedding")
		tailBudget = flag.Duration("tail-budget", 0, "tail-latency SLO driving the degrade ladder (0 = queue/window signals only)")
		faultSpec  = flag.String("faults", "", "fault-injection spec, e.g. 'stall:p=0.2,delay=2ms;corrupt:every=4' (requires a -tags quicknn_faults build)")
		faultSeed  = flag.Uint64("faults-seed", 1, "fault-injection schedule seed (deterministic per seed)")
		chaos      = flag.Bool("chaos", false, "selftest variant: overload burst + fault injection, asserting degrade/shed/recovery")
	)
	flag.Parse()

	maint, err := parseMaintenance(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quicknnd:", err)
		os.Exit(2)
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		if !faults.Enabled {
			fmt.Fprintln(os.Stderr, "quicknnd: -faults requires a binary built with -tags quicknn_faults")
			os.Exit(2)
		}
		plan, err = faults.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: -faults:", err)
			os.Exit(2)
		}
	}
	sink := obs.NewSink("quicknnd")
	if *flightSize > 0 {
		sink.Flight = obs.NewFlightRecorder(*flightSize)
	}
	var sloEngine *slo.Engine
	if *sloSpec != "" {
		sloEngine, err = buildSLO(*sloSpec, sink.Reg())
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: -slo:", err)
			os.Exit(2)
		}
	}
	slowSize := *slowlog
	if slowSize <= 0 {
		slowSize = -1 // Config treats 0 as "use the default"; negative disables
	}
	engine := serve.NewEngine(serve.Config{
		BucketSize:    *bucket,
		Seed:          *seed,
		Maintenance:   maint,
		QueueDepth:    *queue,
		MaxBatch:      *batch,
		MaxWindow:     *window,
		Workers:       *workers,
		IngestWorkers: *ingestW,
		Obs:           sink,
		SlowLogSize:   slowSize,
		TailQuantile:  *tailQ,
		Degrade: degrade.Config{
			Disabled:   !*degradeOn,
			TailBudget: tailBudget.Seconds(),
		},
		Faults: plan,
		// FastBurnFiring is nil-safe and lock-free, so the admission path
		// consumes it directly (a disabled -slo reads as never burning).
		SLOBurning: sloEngine.FastBurnFiring,
	})
	var profiler *prof.Snapshotter
	if *profDir != "" {
		profiler, err = prof.Start(prof.Config{
			Dir:           *profDir,
			Interval:      *profEvery,
			Keep:          *profKeep,
			MutexFraction: 5,
			Reg:           sink.Reg(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: -profile-dir:", err)
			os.Exit(2)
		}
		defer profiler.Stop()
	}
	srv := &server{engine: engine, sink: sink, slo: sloEngine, prof: profiler}

	if sloEngine != nil {
		stopSLO := make(chan struct{})
		go func() {
			ticker := time.NewTicker(*sloInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stopSLO:
					return
				case <-ticker.C:
					sloEngine.Tick(obs.MonotonicSeconds())
				}
			}
		}()
		defer close(stopSLO)
	}

	if *runSample > 0 {
		stopSampler := obs.StartRuntimeSampler(sink.Reg(), *runSample)
		defer stopSampler()
	}

	if *pprofAddr != "" {
		got, err := startPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: pprof listen:", err)
			os.Exit(1)
		}
		fmt.Println("quicknnd: pprof on http://" + got + "/debug/pprof/")
	}

	listenAddr := *addr
	if *selftest || *chaos {
		listenAddr = "127.0.0.1:0" // never collide with a real deployment
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quicknnd: listen:", err)
		os.Exit(1)
	}
	base := "http://" + ln.Addr().String()
	httpSrv := &http.Server{Handler: srv.routes()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(base+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: ready-file:", err)
			os.Exit(1)
		}
	}

	if *chaos {
		err := runChaos(base, sloEngine != nil)
		shutdown(httpSrv, engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: chaos:", err)
			os.Exit(1)
		}
		fmt.Println("quicknnd: chaos OK (" + base + ")")
		return
	}
	if *selftest {
		err := runSelftest(base, *metricsOut, sloEngine != nil, profiler)
		shutdown(httpSrv, engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quicknnd: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("quicknnd: selftest OK (" + base + ")")
		return
	}

	fmt.Println("quicknnd: listening on", base)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		shutdown(httpSrv, engine)
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "quicknnd: serve:", err)
			os.Exit(1)
		}
	}
}

// buildSLO parses the -slo flag and binds each objective's probe to the
// serve metric families on the daemon's registry. Re-registering a
// family with an identical shape returns the engine's own instruments
// (obs.Registry semantics), so the probes read exactly what the engine
// records and /v1/metrics exports — there is no second bookkeeping
// path to drift.
func buildSLO(specStr string, reg *obs.Registry) (*slo.Engine, error) {
	specs, err := slo.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	latency := reg.Histogram("quicknn_serve_latency_seconds",
		"Request latency from submission to completion.",
		obs.TimeBuckets()).With()
	requests := reg.Counter("quicknn_serve_requests_total",
		"Search requests by outcome.", "result")
	// good = served at full fidelity or degraded-but-answered ("ok");
	// everything else (error, shed, closed, degraded-refusal) spends
	// error budget.
	okC := requests.With("ok")
	badC := []*obs.Counter{
		requests.With("error"), requests.With("shed"),
		requests.With("closed"), requests.With("degraded"),
	}
	objs := make([]slo.Objective, 0, len(specs))
	for _, spec := range specs {
		obj := slo.Objective{Name: spec.Kind, Ratio: spec.Ratio, Target: spec.Target, Rules: spec.Rules}
		switch spec.Kind {
		case "latency":
			target := spec.Target
			obj.Probe = func() (float64, float64) {
				good, total := latency.CountAtMost(target)
				return float64(good), float64(total)
			}
		case "errors":
			obj.Probe = func() (float64, float64) {
				good := float64(okC.Value())
				total := good
				for _, c := range badC {
					total += float64(c.Value())
				}
				return good, total
			}
		}
		objs = append(objs, obj)
	}
	return slo.New(slo.Config{Objectives: objs, Reg: reg})
}

func parseMaintenance(s string) (serve.Maintenance, error) {
	switch s {
	case "rebuild":
		return serve.MaintRebuild, nil
	case "static":
		return serve.MaintStatic, nil
	case "incremental":
		return serve.MaintIncremental, nil
	}
	return 0, fmt.Errorf("unknown -maintenance %q (want rebuild|static|incremental)", s)
}

// startPprof serves net/http/pprof on its own listener with an explicit
// mux. The profiler is never mounted on the serving mux: operators opt in
// per deployment with -pprof, bind it to loopback, and a slow profile
// scrape can never head-of-line-block /v1/search or /v1/frame traffic (see
// docs/serving.md, "Profiling"). Returns the bound address (useful with
// :0 ports).
func startPprof(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = (&http.Server{Handler: mux}).Serve(ln) }()
	return ln.Addr().String(), nil
}

// shutdown quiesces the HTTP listener first (no new submissions), then
// drains the engine so every accepted request is answered.
func shutdown(httpSrv *http.Server, engine *serve.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	_ = engine.Close(ctx)
}

// runSelftest drives the running daemon through the full serving cycle
// with real HTTP requests: readiness gating, frame ingest, batched
// search in several modes, error taxonomy checks, a /v1/metrics scrape
// asserting the quicknn_serve_* families, the traceparent round trip
// into the flight recorder, and — when the subsystems are enabled —
// the /v1/status + /v1/alerts shapes and a continuous-profiling cycle.
func runSelftest(base, metricsOut string, sloOn bool, profiler *prof.Snapshotter) error {
	client := &http.Client{Timeout: 10 * time.Second}

	// 1. Before the first frame: liveness is green, and readiness refuses
	// with the no_index envelope (retry hint included).
	if status, _, err := get(client, base+"/v1/healthz"); err != nil {
		return err
	} else if status != http.StatusOK {
		return fmt.Errorf("/v1/healthz = %d, want 200 (liveness never gates on the index)", status)
	}
	rzStatus, rzBody, err := get(client, base+"/v1/readyz")
	if err != nil {
		return err
	}
	if rzStatus != http.StatusServiceUnavailable {
		return fmt.Errorf("/v1/readyz before first frame = %d, want 503", rzStatus)
	}
	var env errorResponse
	if err := json.Unmarshal(rzBody, &env); err != nil {
		return fmt.Errorf("/v1/readyz envelope: %w", err)
	}
	if env.Code != "no_index" || env.RetryAfterMS <= 0 {
		return fmt.Errorf("/v1/readyz envelope = %+v, want code no_index with retry_after_ms > 0", env)
	}
	// ... and /v1/search must refuse with the no-index taxonomy (503).
	if status, _, err := post(client, base+"/v1/search", searchRequest{Queries: [][3]float32{{1, 2, 3}}}); err != nil {
		return err
	} else if status != http.StatusServiceUnavailable {
		return fmt.Errorf("/v1/search before first frame = %d, want 503", status)
	}

	// 2. Ingest two synthetic frames (epoch advances).
	frames := quicknn.SyntheticFrames(4000, 2, 42)
	for fi, frame := range frames {
		triples := make([][3]float32, len(frame))
		for i, p := range frame {
			triples[i] = [3]float32{p.X, p.Y, p.Z}
		}
		status, body, err := post(client, base+"/v1/frame", frameRequest{Points: triples})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("/v1/frame %d = %d: %s", fi, status, body)
		}
		var fr frameResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			return fmt.Errorf("/v1/frame %d body: %w", fi, err)
		}
		if fr.Epoch != uint64(fi+1) || fr.Points != len(frame) {
			return fmt.Errorf("/v1/frame %d reply %+v, want epoch %d with %d points", fi, fr, fi+1, len(frame))
		}
	}

	// 3. Batched search in every mode against the current epoch.
	queries := make([][3]float32, 32)
	for i, p := range frames[1][:len(queries)] {
		queries[i] = [3]float32{p.X, p.Y, p.Z}
	}
	for _, req := range []searchRequest{
		{Queries: queries, K: 4},                             // approx (default)
		{Queries: queries, K: 4, Mode: "exact"},              // exact
		{Queries: queries, K: 4, Mode: "checks", Checks: 64}, // bounded checks
		{Queries: queries, Mode: "radius", Radius: 5},        // radius
	} {
		status, body, err := post(client, base+"/v1/search", req)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("/v1/search mode=%q = %d: %s", req.Mode, status, body)
		}
		var sr searchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("/v1/search mode=%q body: %w", req.Mode, err)
		}
		if sr.Epoch != uint64(len(frames)) || len(sr.Results) != len(queries) {
			return fmt.Errorf("/v1/search mode=%q: epoch %d / %d results, want epoch %d / %d",
				req.Mode, sr.Epoch, len(sr.Results), len(frames), len(queries))
		}
		if req.Mode == "" || req.Mode == "exact" {
			for qi, nbrs := range sr.Results {
				if len(nbrs) != req.K {
					return fmt.Errorf("/v1/search mode=%q query %d: %d neighbors, want %d", req.Mode, qi, len(nbrs), req.K)
				}
			}
		}
	}

	// 4. Error taxonomy: a bad mode must map to 400 with the envelope
	// code, not 500.
	badStatus, badBody, err := post(client, base+"/v1/search", searchRequest{Queries: queries, Mode: "psychic"})
	if err != nil {
		return err
	}
	if badStatus != http.StatusBadRequest {
		return fmt.Errorf("/v1/search bad mode = %d, want 400", badStatus)
	}
	var badEnv errorResponse
	if err := json.Unmarshal(badBody, &badEnv); err != nil || badEnv.Code != "bad_request" {
		return fmt.Errorf("/v1/search bad mode envelope = %s, want code bad_request", badBody)
	}

	// 5. Readiness flipped after the first frame: /v1/readyz reports the
	// ladder level.
	rzStatus2, rzBody2, err := get(client, base+"/v1/readyz")
	if err != nil {
		return err
	}
	if rzStatus2 != http.StatusOK {
		return fmt.Errorf("/v1/readyz after frames = %d: %s, want 200", rzStatus2, rzBody2)
	}
	var rz readyzResponse
	if err := json.Unmarshal(rzBody2, &rz); err != nil {
		return fmt.Errorf("/v1/readyz body: %w", err)
	}
	if rz.Status != "ok" || rz.Epoch != uint64(len(frames)) || rz.QueueCapacity == 0 {
		return fmt.Errorf("/v1/readyz = %+v, want ok at epoch %d", rz, len(frames))
	}

	// 6. Scrape /v1/metrics and assert the serving families are present.
	status, scrape, err := get(client, base+"/v1/metrics")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/metrics = %d", status)
	}
	for _, fam := range []string{
		"quicknn_serve_batch_size",
		"quicknn_serve_latency_seconds",
		"quicknn_serve_requests_total",
		"quicknn_serve_epoch_live",
		"quicknn_serve_frame_build_seconds",
	} {
		if !strings.Contains(string(scrape), fam) {
			return fmt.Errorf("/v1/metrics scrape missing family %s", fam)
		}
	}
	// The scrape also samples Go runtime health into the registry.
	if !strings.Contains(string(scrape), "quicknn_go_heap_alloc_bytes") {
		return fmt.Errorf("/v1/metrics scrape missing the quicknn_go_ runtime family")
	}
	if sloOn {
		for _, fam := range []string{
			"quicknn_slo_burn_rate",
			"quicknn_slo_alert_state",
			"quicknn_slo_alert_transitions_total",
			"quicknn_slo_error_budget_remaining",
		} {
			if !strings.Contains(string(scrape), fam) {
				return fmt.Errorf("/v1/metrics scrape missing SLO family %s", fam)
			}
		}
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, scrape, 0o644); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}

	// 7. The OpenMetrics exposition carries exemplars and the EOF marker.
	status, om, err := get(client, base+"/v1/metrics?exemplars=1")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/metrics?exemplars=1 = %d", status)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		return fmt.Errorf("OpenMetrics exposition missing the # EOF terminator")
	}
	if !strings.Contains(string(om), `# {request_id="`) {
		return fmt.Errorf("OpenMetrics exposition carries no exemplars")
	}

	// 8. The flight recorder saw every search request this selftest made.
	status, body, err := get(client, base+"/v1/debug/quicknn/flightrecorder")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/debug/quicknn/flightrecorder = %d", status)
	}
	var fl flightResponse
	if err := json.Unmarshal(body, &fl); err != nil {
		return fmt.Errorf("/v1/debug/quicknn/flightrecorder body: %w", err)
	}
	if fl.Capacity == 0 || fl.Total < 4 || len(fl.Records) < 4 {
		return fmt.Errorf("/v1/debug/quicknn/flightrecorder = capacity %d, total %d, %d records; want >=4 records",
			fl.Capacity, fl.Total, len(fl.Records))
	}
	for i, rec := range fl.Records {
		if rec.ID == 0 || rec.Queries == 0 || rec.Epoch == 0 || rec.Total <= 0 {
			return fmt.Errorf("/v1/debug/quicknn/flightrecorder record %d malformed: %+v", i, rec)
		}
	}

	// 9. The slowlog endpoint reports the tail sampler's state.
	status, body, err = get(client, base+"/v1/debug/quicknn/slowlog")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/debug/quicknn/slowlog = %d", status)
	}
	var sl slowlogResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		return fmt.Errorf("/v1/debug/quicknn/slowlog body: %w", err)
	}
	if sl.TailQuantile != 0.99 {
		return fmt.Errorf("/v1/debug/quicknn/slowlog tail_quantile = %v, want 0.99", sl.TailQuantile)
	}
	if sl.TailEstimateSeconds <= 0 {
		return fmt.Errorf("/v1/debug/quicknn/slowlog tail estimate never seeded")
	}
	if sl.Records == nil {
		return fmt.Errorf("/v1/debug/quicknn/slowlog records must be an array, not null")
	}

	// 10. Traceparent round trip: a traced search must echo the caller's
	// trace id with the engine request id as the span id, and the request
	// must be findable by trace id in the flight-recorder dump and in its
	// latency exemplar (the derived 64-bit low half).
	const parentTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + parentTrace + "-00f067aa0ba902b7-01"
	status, hdr, body, err := postHdr(client, base+"/v1/search",
		map[string]string{"traceparent": parent},
		searchRequest{Queries: queries[:2], K: 3})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("traced /v1/search = %d: %s", status, body)
	}
	echo := hdr.Get("traceparent")
	echoTrace, echoSpan, ok := obs.ParseTraceParent(echo)
	if !ok || echoTrace.String() != parentTrace {
		return fmt.Errorf("traced /v1/search echoed traceparent %q, want trace id %s", echo, parentTrace)
	}
	if echo == parent {
		return fmt.Errorf("traced /v1/search must answer with its own span id, got the parent back: %q", echo)
	}
	status, body, err = get(client, base+"/v1/debug/quicknn/flightrecorder?trace="+parentTrace)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/debug/quicknn/flightrecorder?trace= = %d: %s", status, body)
	}
	var tfl flightResponse
	if err := json.Unmarshal(body, &tfl); err != nil {
		return fmt.Errorf("trace-filtered flightrecorder body: %w", err)
	}
	if len(tfl.Records) != 1 {
		return fmt.Errorf("trace filter surfaced %d records, want exactly the traced request", len(tfl.Records))
	}
	if tfl.Records[0].Trace != parentTrace {
		return fmt.Errorf("trace-filtered record carries trace %q, want %s", tfl.Records[0].Trace, parentTrace)
	}
	if tfl.Records[0].ID != echoSpan {
		return fmt.Errorf("record id %d != echoed span id %d (the response span must be the engine request id)",
			tfl.Records[0].ID, echoSpan)
	}
	status, om, err = get(client, base+"/v1/metrics?exemplars=1")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/metrics?exemplars=1 = %d", status)
	}
	if !strings.Contains(string(om), `trace_id="a3ce929d0e0e4736"`) {
		return fmt.Errorf("no latency exemplar carries the traced request's trace_id")
	}

	// 11. /v1/status: the operational snapshot, with the SLO block
	// present (and its ticker live) exactly when -slo is set.
	var st statusResponse
	statusDeadline := time.Now().Add(10 * time.Second)
	for {
		status, body, err = get(client, base+"/v1/status")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("/v1/status = %d: %s", status, body)
		}
		st = statusResponse{}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("/v1/status body: %w", err)
		}
		if !sloOn || (st.SLO != nil && st.SLO.Ticks >= 1) {
			break
		}
		if time.Now().After(statusDeadline) {
			return fmt.Errorf("/v1/status SLO ticker never ticked: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.Status != "ok" || st.UptimeSeconds <= 0 || st.Epoch != uint64(len(frames)) || st.QueueCapacity == 0 {
		return fmt.Errorf("/v1/status = %+v, want ok at epoch %d with uptime and queue capacity", st, len(frames))
	}
	if sloOn {
		if st.SLO == nil || len(st.SLO.Objectives) == 0 {
			return fmt.Errorf("/v1/status missing the SLO table with -slo set: %s", body)
		}
		for _, obj := range st.SLO.Objectives {
			if obj.Name == "" || len(obj.Alerts) == 0 {
				return fmt.Errorf("/v1/status SLO objective malformed: %+v", obj)
			}
		}
	} else if st.SLO != nil {
		return fmt.Errorf("/v1/status carries an SLO block without -slo")
	}

	// 12. /v1/alerts: enabled tracks -slo, alerts is always an array.
	status, body, err = get(client, base+"/v1/alerts")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/alerts = %d: %s", status, body)
	}
	var al alertsResponse
	if err := json.Unmarshal(body, &al); err != nil {
		return fmt.Errorf("/v1/alerts body: %w", err)
	}
	if al.Enabled != sloOn {
		return fmt.Errorf("/v1/alerts enabled = %v, want %v", al.Enabled, sloOn)
	}
	if !bytes.Contains(body, []byte(`"alerts":[`)) {
		return fmt.Errorf("/v1/alerts alerts must be an array, not null: %s", body)
	}

	// 13. Continuous profiling (when enabled): force one capture cycle
	// and assert /v1/status points at on-disk cpu/heap/mutex snapshots.
	if profiler != nil {
		profiler.CaptureCycle()
		status, body, err = get(client, base+"/v1/status")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("/v1/status after capture = %d", status)
		}
		st = statusResponse{}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("/v1/status body after capture: %w", err)
		}
		for _, kind := range prof.Kinds() {
			path, ok := st.Profiles[kind]
			if !ok || path == "" {
				return fmt.Errorf("/v1/status profiles missing kind %s: %+v", kind, st.Profiles)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				return fmt.Errorf("profile %s at %s missing or empty (stat: %v)", kind, path, err)
			}
		}
		// Refresh the metrics-out artifact so it carries the
		// quicknn_prof_* capture counters the cycle just bumped.
		if metricsOut != "" {
			status, scrape, err := get(client, base+"/v1/metrics")
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("/v1/metrics after capture = %d", status)
			}
			if !strings.Contains(string(scrape), "quicknn_prof_captures_total") {
				return fmt.Errorf("/v1/metrics scrape missing family quicknn_prof_captures_total")
			}
			if err := os.WriteFile(metricsOut, scrape, 0o644); err != nil {
				return fmt.Errorf("metrics-out: %w", err)
			}
		}
	}
	return nil
}

func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("GET %s: read: %w", url, err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// postHdr is post with request headers, also returning the response
// headers (the traceparent round-trip check needs both sides).
func postHdr(client *http.Client, url string, hdr map[string]string, body interface{}) (int, http.Header, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, fmt.Errorf("POST %s: read: %w", url, err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes(), nil
}

func post(client *http.Client, url string, body interface{}) (int, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("POST %s: read: %w", url, err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}
