# Development targets for the QuickNN reproduction. CI (.github/workflows/
# ci.yml) runs the same commands, so a green `make ci` locally predicts a
# green pipeline.

GO        ?= go
FUZZTIME  ?= 10s
# bench-hot knobs: BENCHTIME scales run length (CI smoke uses a short
# one); the MIN_* gates are the acceptance thresholds BENCH_hotpath.json
# must meet on the batch-shaped benchmarks (docs/performance.md). Set
# MIN_SPEEDUP=0 for runs on noisy/shared machines — the allocs/op gate
# stays meaningful at any benchtime because the code's own allocations
# are deterministic (the runtime's GC-dependent pool and goroutine
# allocations are explained in docs/performance.md).
BENCHTIME     ?= 2s
MIN_SPEEDUP   ?= 1.4
MIN_ALLOC_RED ?= 0.9
# MAX_OVERHEAD bounds what the flight recorder may cost the hot path:
# the HotFlightRecordOn/Off pair (compared within the current run) must
# stay at or below this ns ratio. Set MAX_OVERHEAD=0 to report without
# gating (noisy/shared machines).
MAX_OVERHEAD  ?= 1.05
# bench-ingest gate: the multi-worker ingest benchmarks must beat the
# checked-in one-worker (-cpu 1) baseline by this factor. The speedup only
# exists with real cores, so the gate arms itself at 1.8 on hosts with
# >= 4 CPUs and disarms (0 = report only) below that — single-CPU
# runners measure an honest ~1.0x and must not fail on it.
INGEST_MIN_SPEEDUP ?= $(shell n=$$(nproc 2>/dev/null || echo 1); \
	if [ "$$n" -ge 4 ]; then echo 1.8; else echo 0; fi)
# Every fuzz target as name:package; each gets its own smoke run because
# `go test -fuzz` accepts only one matching target at a time.
FUZZ_TARGETS := FuzzReadFrameCSV:. FuzzReadFrameBinary:. FuzzLoadIndex:. \
	FuzzConfigCheck:./internal/dram

.PHONY: all build vet lint lint-syntactic test race fuzz sanitize anchors perfbench-smoke trace-demo serve-demo chaos-demo slo-demo bench-hot bench-ingest bench-ingest-baseline ci clean

all: build

## build: compile every package and command.
build:
	$(GO) build ./...

## vet: run the standard go vet checks.
vet:
	$(GO) vet ./...

## lint: run the typed quicknnlint analyzer suite (see docs/lint.md).
lint:
	$(GO) run ./cmd/quicknnlint ./...

## lint-syntactic: the degraded AST-only driver (what the typed driver
## falls back to per-file when type information is unavailable).
lint-syntactic:
	$(GO) run ./cmd/quicknnlint -syntactic ./...

## test: run the full test suite (includes the lint self-test).
test:
	$(GO) test ./...

## race: run the suite under the race detector (parallel search paths),
## then re-run the fault-adjacent packages with the injection hooks
## armed — the chaos test (cmd/quicknnd) only exists in that build.
race:
	$(GO) test -race ./...
	$(GO) test -tags quicknn_faults -race ./internal/faults/... ./internal/serve/... ./cmd/quicknnd/...

## fuzz: short fuzzing smoke over every fuzz target.
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzz $$name in $$pkg ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

## sanitize: build and test the runtime sanitizer — the epoch-snapshot
## lifecycle checker (internal/serve) — under the race detector, then
## lint the tag-gated sources the default build excludes (docs/lint.md).
sanitize:
	$(GO) test -tags quicknn_sanitize -race ./internal/serve/...
	$(GO) test -tags "quicknn_sanitize quicknn_faults" -race ./internal/serve/...
	$(GO) run ./cmd/quicknnlint -tags quicknn_sanitize ./...
	$(GO) run ./cmd/quicknnlint -tags quicknn_faults ./...

## anchors: run every experiment at full scale and diff the output
## against the recorded docs/results-full.txt — the paper anchors
## (EXPERIMENTS.md). Only the host-timed parts are masked: the
## "completed in" footers and annbench's Queries/s column. The
## quick-scale golden test in cmd/benchtables (part of `make test`)
## masks the same way.
ANCHOR_MASK = sed -E -e 's/ completed in [^]]*\]/ completed]/' \
	-e '/^Method \/ operating point/,/^\(/{/^(Method|\()/!s/[0-9]+ *$$/-/}'

anchors:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/benchtables -exp all > "$$dir/full.txt" && \
	$(ANCHOR_MASK) docs/results-full.txt > "$$dir/want.txt" && \
	$(ANCHOR_MASK) "$$dir/full.txt" > "$$dir/got.txt" && \
	diff -u "$$dir/want.txt" "$$dir/got.txt" && \
	echo "anchors: OK (full run matches docs/results-full.txt)"

## perfbench-smoke: the end-to-end benchmark's own test suite — a
## short run of every workload with answer checking, in the separate
## perfbench module (perfbench/README.md, docs/performance.md).
perfbench-smoke:
	cd perfbench && $(GO) test ./...

## trace-demo: end-to-end observability smoke — run a small simulated
## drive, validate the Perfetto trace it emits, and check that the
## Prometheus snapshot carries every layer's metric families
## (docs/observability.md).
trace-demo:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/quicknn -points 2000 -frames 3 -sim \
		-trace "$$dir/drive.trace.json" -metrics "$$dir/drive.prom" && \
	$(GO) run ./cmd/memtrace -check "$$dir/drive.trace.json" && \
	for fam in quicknn_dram_ quicknn_sim_ quicknn_pipeline_; do \
		grep -q "$$fam" "$$dir/drive.prom" || \
			{ echo "trace-demo: $$fam metrics missing from snapshot"; exit 1; }; \
	done && \
	echo "trace-demo: OK (trace + metrics snapshot verified)"

## serve-demo: end-to-end serving smoke — quicknnd binds a loopback
## port, ingests synthetic frames, answers batched searches in every
## mode over real HTTP, fetches /debug/quicknn/flightrecorder and
## /debug/quicknn/slowlog (the selftest asserts both return well-formed
## JSON with the expected records), round-trips a W3C traceparent into
## the flight recorder and exemplars, polls /v1/status and /v1/alerts,
## captures a profiling cycle, and the /metrics scrape must carry the
## quicknn_serve_*, quicknn_slo_* and quicknn_go_ families
## (docs/serving.md, docs/observability.md).
serve-demo:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/quicknnd -selftest -metrics-out "$$dir/serve.prom" \
		-slo 'latency:target=5ms,ratio=0.99;errors:ratio=0.999' -slo-interval 100ms \
		-profile-dir "$$dir/prof" && \
	for fam in quicknn_serve_batch_size quicknn_serve_latency_seconds \
			quicknn_serve_tail_latency_seconds quicknn_slo_burn_rate \
			quicknn_slo_error_budget_remaining quicknn_prof_captures_total \
			quicknn_go_heap_alloc_bytes; do \
		grep -q "$$fam" "$$dir/serve.prom" || \
			{ echo "serve-demo: $$fam metrics missing from scrape"; exit 1; }; \
	done && \
	echo "serve-demo: OK (HTTP cycle + trace correlation + SLO + profiling + metrics scrape verified)"

## chaos-demo: degradation-under-fault smoke — an armed (-tags
## quicknn_faults) quicknnd drives itself through corrupted frame
## ingest, then an overload burst against a deliberately tiny queue and
## worker budget, asserting the degradation contract over real HTTP:
## every reply is a 200 (possibly degraded) or a typed 503 envelope
## with a live retry_after_ms, the ladder is visible in the
## quicknn_degrade_* families and the flight-record stamps, and after
## the burst the ladder recovers to level 0 and a strict full-fidelity
## search succeeds again (docs/robustness.md).
chaos-demo:
	$(GO) run -tags quicknn_faults ./cmd/quicknnd -chaos \
		-queue 8 -batch 8 -workers 1 -tail-budget 50ms \
		-faults 'stall:p=0.6,delay=8ms;build:every=2,delay=5ms;retire:every=3,delay=1ms;submit:p=0.1,delay=500us;corrupt:every=4'

## slo-demo: burn-rate alerting smoke — quicknnd drives its own chaos
## harness with an in-process SLO engine armed on a deliberately
## aggressive latency objective (1ms p-target at 99.9%, sub-second
## windows). The overload burst sends heavy exact-mode batches whose
## queue waits violate the objective, so the fast-burn rule must walk
## pending -> firing while the burst is in flight, corroborate the
## degrade ladder's StepUp, and resolve during the post-burst silence
## before recovery is asserted (docs/observability.md). Runs without
## fault injection: injected stalls would keep recovery traffic above
## the target and the alert could never resolve.
slo-demo:
	$(GO) run ./cmd/quicknnd -chaos \
		-queue 8 -batch 8 -workers 1 -window 200us -tail-budget 50ms \
		-slo 'latency:target=1ms,ratio=0.999,fast=1s/4s,slow=5s/20s,for_fast=200ms,for_slow=1s' \
		-slo-interval 50ms

## bench-hot: run the hot-path benchmarks (BenchmarkHot*), compare them
## against the checked-in pre-optimization baseline
## (testdata/bench/hotpath_baseline.txt), and write BENCH_hotpath.json.
## The batch-shaped benchmarks are gated on MIN_SPEEDUP / MIN_ALLOC_RED
## (docs/performance.md).
bench-hot:
	$(GO) test -run '^$$' -bench '^BenchmarkHot' -benchmem -benchtime $(BENCHTIME) \
		./ ./internal/kdtree | tee testdata/bench/hotpath_current.txt
	$(GO) run ./cmd/benchjson \
		-baseline testdata/bench/hotpath_baseline.txt \
		-current testdata/bench/hotpath_current.txt \
		-out BENCH_hotpath.json \
		-gate HotSearchAllApprox,HotQueryBatch,HotQueryBatchSerial,HotSearchAllExact \
		-min-speedup $(MIN_SPEEDUP) -min-alloc-reduction $(MIN_ALLOC_RED) \
		-overhead-pair HotFlightRecordOn=HotFlightRecordOff \
		-max-overhead $(MAX_OVERHEAD)
	@echo "bench-hot: OK (BENCH_hotpath.json written)"

## bench-ingest: run the frame-ingest benchmarks (BenchmarkIngest*) at
## the host's full core count, compare them against the checked-in
## one-worker baseline (testdata/bench/ingest_baseline.txt, produced by
## bench-ingest-baseline with -cpu 1), and write BENCH_ingest.json.
## The default-worker build/place/rebalance/frame benchmarks are gated on
## INGEST_MIN_SPEEDUP, which self-disarms on hosts with < 4 CPUs
## (docs/performance.md).
bench-ingest:
	$(GO) test -run '^$$' -bench '^BenchmarkIngest' -benchmem -benchtime $(BENCHTIME) \
		./internal/kdtree | tee testdata/bench/ingest_current.txt
	$(GO) run ./cmd/benchjson \
		-baseline testdata/bench/ingest_baseline.txt \
		-current testdata/bench/ingest_current.txt \
		-out BENCH_ingest.json \
		-gate IngestBuild,IngestPlace,IngestRebalance,IngestFrame \
		-min-speedup $(INGEST_MIN_SPEEDUP)
	@echo "bench-ingest: OK (BENCH_ingest.json written)"

## bench-ingest-baseline: regenerate the one-worker ingest baseline by
## pinning the whole benchmark process to one CPU (-cpu 1 makes
## Parallelism 0 resolve to a single worker).
bench-ingest-baseline:
	$(GO) test -run '^$$' -bench '^BenchmarkIngest' -benchmem -benchtime $(BENCHTIME) \
		-cpu 1 ./internal/kdtree | tee testdata/bench/ingest_baseline.txt
	@echo "bench-ingest-baseline: OK (testdata/bench/ingest_baseline.txt written)"

## ci: everything the pipeline runs, in order.
ci: build vet lint test race sanitize fuzz anchors perfbench-smoke trace-demo serve-demo chaos-demo slo-demo

clean:
	$(GO) clean ./...
