GO ?= go

.PHONY: all build test check fuzz vet fmt bench bench-serve lint-examples

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint-examples keeps the examples honest: they document the public
# API, so they must consume only the root fvcache package, never the
# internal engine behind it.
lint-examples:
	@if grep -rn 'fvcache/internal' examples/; then \
		echo "examples/ must import only the public fvcache package"; exit 1; \
	fi

# check is the full robustness gate (see ROADMAP.md "Tier-1 verify"):
# vet, the examples import lint, build (with telemetry on and compiled
# out), the race-enabled test suite (which includes the fvcached
# service e2e tests: request coalescing, 429 backpressure, graceful
# drain, deadlines, the circuit breaker, and the chaos detection
# matrix over the durable result cache, concurrent batch replays over
# one shared recording, the flight-recorder concurrency test,
# the 3-node fleet suite and the cache-hit fast path), a short fuzz smoke
# run over the hardened trace reader, the columnar chunk codec, and
# the result-cache entry codec, the telemetry-overhead gate (the
# steady-state replay loops — per-config, fused batch, and the
# driver's boundary loop — and the result-cache hit path must stay
# allocation-free with telemetry compiled in, and the exported
# telemetry.json must validate end to end), the service smoke and
# crash-recovery runs (boot fvcached, measure over HTTP, SIGKILL it
# over a durable cache, restart, prove quarantine + bit-identical
# recompute), a single-iteration pass over every benchmark so the
# benchmark corpus cannot rot, and a sanity pass over the committed
# sweep-engine artifact (it must parse, every speedup layer must hold
# its threshold — including the analytic miss-rate-curve pass's 5x
# bar over the ladder replay — the steady-state
# allocation counts must be zero, the compression ratio must beat the
# raw columns, and its telemetry snapshot must validate). The mrc
# zero-alloc gate pins both analytic hot loops: the banked Mattson
# stack update and the fused direct-mapped table walk. The request-
# observability additions gate here too: an obsoff build + test of the
# reqtrace layer, the span hot path's zero-alloc pin with telemetry
# compiled in, a serveload smoke against a booted fvcached
# (TestServeLoadSmoke), and schema validation of the committed
# BENCH_serve.json artifact. The fleet additions gate here as well: an
# obsoff build + test of the public api and client packages, and the
# serveload -verify run also checks the fleet lane (forward ratio vs
# (n-1)/n, single ownership, fleet hit ratio) and the hit fast path
# (measure-hit p50 under 1ms, no hit trace waiting on a batch).
check: vet lint-examples build
	$(GO) build -tags obsoff ./...
	$(GO) test -race ./...
	$(GO) test -tags obsoff ./internal/obs ./internal/obs/reqtrace ./internal/serve ./internal/sim ./internal/core ./internal/mrc ./api ./client
	$(GO) test -tags obsoff -run TestEngineGolden .
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=5s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzColumnCodec -fuzztime=5s
	$(GO) test ./internal/resultcache -run='^$$' -fuzz=FuzzResultEntry -fuzztime=5s
	$(GO) test -count=1 -run='TestReplayAccessPathZeroAllocs|TestBatchReplayZeroAllocs' ./internal/sim
	$(GO) test -count=1 -run='TestChunkedDecodeZeroAllocsSteadyState' ./internal/trace
	$(GO) test -count=1 -run='TestMRCSteadyZeroAllocs|TestMRCDMSteadyZeroAllocs' ./internal/mrc
	$(GO) test -count=1 -run='TestResultCacheHitZeroAllocs' ./internal/resultcache
	$(GO) test -count=1 -run='TestSpanHotPathZeroAllocs' ./internal/obs/reqtrace
	$(GO) test -count=1 -run='TestTelemetry|TestServiceSmoke|TestCrashRecovery|TestServeLoadSmoke' .
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/benchsweep -verify BENCH_sweep.json
	$(GO) run ./cmd/serveload -verify BENCH_serve.json

# bench measures the sweep-engine layers (per-config replay, the fused
# batch, and the analytic miss-rate-curve pass) against live execution
# and writes the BENCH_sweep.json artifact, plus the run's
# telemetry.json snapshot next to it.
bench:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

# bench-serve replays the seeded production-style request mix against
# a spawned fvcached and regenerates BENCH_serve.json (latency
# quantiles per endpoint, hit/coalesce ratios, per-stage time
# attribution), plus the drained server's telemetry_serve.json next to
# it.
bench-serve:
	$(GO) run ./cmd/serveload -o BENCH_serve.json

fuzz:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=60s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzColumnCodec -fuzztime=60s
	$(GO) test ./internal/resultcache -run='^$$' -fuzz=FuzzResultEntry -fuzztime=60s

fmt:
	gofmt -w .
