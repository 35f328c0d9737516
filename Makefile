GO ?= go

.PHONY: all build test check fuzz vet fmt bench bench-serve lint-examples

# FUZZ lists every fuzz target as package:Target. check runs each for
# 5s and fuzz for 60s. Each new input is minimized for at most 100
# executions: the golden-model fuzzer's inputs are a few hundred bytes,
# and the default (up to 60s per input) would spend a 5s run
# minimizing.
FUZZ = ./internal/trace:FuzzReader ./internal/trace:FuzzColumnCodec \
	./internal/resultcache:FuzzResultEntry ./api:FuzzConfigFingerprint \
	./internal/serve:FuzzMeasureRequest ./internal/serve:FuzzMRCRequest \
	./internal/serve:FuzzSweepRequest ./internal/core:FuzzHierarchyMatchesGolden

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
# vet, the examples import lint, a gofmt check over every package of
# this module, build (with telemetry on and compiled out), then the
# race-enabled test suite. That one pass runs every
# gate test exactly once: the fvcached service e2e tests (request
# coalescing, 429 backpressure, graceful drain, deadlines, the circuit
# breaker, the chaos detection matrix over the durable result cache,
# concurrent batch replays over one shared recording, the
# flight-recorder concurrency test, the 3-node fleet suite and the
# cache-hit fast path); the telemetry-overhead gate (the steady-state
# replay loops — per-config and fused batch — the chunk decoder, both
# analytic miss-rate-curve hot loops, the result-cache hit path and
# the request-span hot path must stay allocation-free with telemetry
# compiled in, and the exported telemetry.json must validate end to
# end); and the service smoke, crash-recovery and serveload smoke runs
# (boot fvcached, measure over HTTP, SIGKILL it over a durable cache,
# restart, prove quarantine + bit-identical recompute). After it come
# the obsoff test runs of the telemetry, serving, engine and public
# api/client packages plus the engine golden digest, 5s fuzz smokes of
# every FUZZ target: the hardened trace reader, the columnar chunk
# codec, the result-cache entry codec, the config fingerprint (the key
# every cache and coalescing path trusts), the /v1/measure, /v1/mrc and
# /v1/sweep request decoders (no panic, every refusal an error
# envelope, every 200 well-formed, no 200 for a body with an unknown
# top-level field or data after its JSON value, and no sweep given
# more workers than the server's pool) and the hierarchy against its
# golden models (per-access hit sources of a solo System, and hit
# tallies and Stats of the same configs as SystemSet lanes), a
# single-iteration pass over every
# benchmark so the benchmark corpus cannot rot, and the -verify passes
# over the committed artifacts: benchsweep checks BENCH_sweep.json
# (every speedup layer holds its threshold — including the analytic
# miss-rate-curve pass's 5x bar over the ladder replay — the
# steady-state allocation counts are zero, the compression ratio beats
# the raw columns, and its telemetry snapshot validates); serveload
# checks BENCH_serve.json's schema, the fleet lane (forward ratio vs
# (n-1)/n, single ownership, fleet hit ratio) and the hit fast path
# (measure-hit p50 under 1ms, no hit trace waiting on a batch).
check: vet lint-examples build
	test -z "$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...))"
	$(GO) build -tags obsoff ./...
	$(GO) test -race ./...
	$(GO) test -tags obsoff ./internal/obs ./internal/obs/reqtrace ./internal/serve ./internal/sim ./internal/core ./internal/mrc ./api ./client
	$(GO) test -tags obsoff -run TestEngineGolden .
	for t in $(FUZZ); do \
		$(GO) test $${t%:*} -run='^$$' -fuzz="^$${t#*:}\$$" -fuzztime=5s -fuzzminimizetime=100x || exit 1; \
	done
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
	for t in $(FUZZ); do \
		$(GO) test $${t%:*} -run='^$$' -fuzz="^$${t#*:}\$$" -fuzztime=60s -fuzzminimizetime=100x || exit 1; \
	done

fmt:
	gofmt -w .
