package serve

// Request-scoped observability (see DESIGN.md §15): every request gets
// a trace ID (inbound X-Request-Id / traceparent honored, minted
// otherwise) and a span tree recording where its time went; finished
// traces land in the flight-recorder ring at /debug/requests, and
// end-to-end latency feeds the exact-quantile histograms below, keyed
// per endpoint × outcome so a p99 regression is attributable to the
// path that caused it.

import (
	"fmt"
	"net/http"
	"time"

	"fvcache/internal/obs"
	"fvcache/internal/obs/reqtrace"
)

// Serving stages whose durations feed the serve_stage_us{stage=...}
// quantile series (the per-stage time attribution BENCH_serve.json
// reports): parse, cache_probe and encode once per request; the
// coalescing window, queue wait and replay once per batch.
var (
	stageParseUS    = stageSeries("parse")
	stageCoalesceUS = stageSeries("coalesce_wait")
	stageQueueUS    = stageSeries("queue_wait")
	stageCacheUS    = stageSeries("cache_probe")
	stageReplayUS   = stageSeries("replay")
	stageEncodeUS   = stageSeries("encode")
	stageForwardUS  = stageSeries("forward")
)

func stageSeries(stage string) *obs.Histogram {
	return obs.Default.Histogram(obs.Labeled("serve_stage_us", "stage", stage))
}

// latencySeries pre-registers the endpoint × outcome quantile matrix
// so handler hot paths pay a map lookup, not a registry mutex +
// format. Unknown combinations fall back to outcome="error". Every
// endpoint that opens a trace has a row, so every tracked request is
// counted (workloads and artifacts only trace their 405s).
var latencySeries = func() map[string]map[string]*obs.Histogram {
	m := make(map[string]map[string]*obs.Histogram)
	for _, ep := range []string{"measure", "mrc", "sweep", "workloads", "artifacts"} {
		byOutcome := make(map[string]*obs.Histogram)
		for _, out := range []string{"hit", "coalesced", "executed", "forwarded", "429", "503", "504", "error"} {
			name := fmt.Sprintf(`serve_latency_us{endpoint=%q,outcome=%q}`, ep, out)
			byOutcome[out] = obs.Default.Histogram(name)
		}
		m[ep] = byOutcome
	}
	return m
}()

// outcomeFor maps an HTTP status (and, for 200s, the execution class)
// to the latency-series outcome label.
func outcomeFor(status int, class string) string {
	switch status {
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusServiceUnavailable:
		return "503"
	case http.StatusGatewayTimeout:
		return "504"
	}
	if status >= 400 {
		return "error"
	}
	if class == "" {
		return "executed"
	}
	return class
}

// reqTrack carries one request's trace through a handler: it owns the
// trace lifecycle (start → outcome → finish), echoes the trace ID on
// the response, renders error bodies with the ID attached, and feeds
// the endpoint × outcome latency series exactly once.
type reqTrack struct {
	s        *Server
	tr       *reqtrace.Trace
	w        http.ResponseWriter
	req      *http.Request
	endpoint string
	start    time.Time
	done     bool
}

// track opens a trace for an inbound request and stamps the trace ID
// on the response headers (set now, written with the first
// WriteHeader).
func (s *Server) track(endpoint string, w http.ResponseWriter, r *http.Request) *reqTrack {
	t := &reqTrack{s: s, endpoint: endpoint, start: time.Now(), w: w, req: r}
	t.tr = s.rec.Start(endpoint, r.Header)
	if id := t.tr.ID(); id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	return t
}

// finish seals the trace with the request's outcome and records its
// end-to-end latency. Idempotent: only the first call counts.
func (t *reqTrack) finish(status int, class string) {
	if t.done {
		return
	}
	t.done = true
	elapsed := time.Since(t.start)
	outcome := outcomeFor(status, class)
	if byOutcome, ok := latencySeries[t.endpoint]; ok {
		h := byOutcome[outcome]
		if h == nil {
			h = byOutcome["error"]
		}
		h.Observe(uint64(elapsed.Microseconds()))
	}
	// Read the ID before Finish hands the pooled trace back: a worker
	// may reuse it for the next batch the moment it is released.
	id := t.tr.ID()
	t.tr.SetOutcome(status, outcome)
	t.s.rec.Finish(t.tr)
	obs.Log.Debug("request",
		"id", id, "endpoint", t.endpoint, "status", status,
		"outcome", outcome, "us", elapsed.Microseconds())
}

// fail renders err with the status's default retry semantics (trace ID
// attached) and seals the trace.
func (t *reqTrack) fail(status int, err error) {
	t.tr.SetError(err.Error())
	writeErrorID(t.w, status, err, t.tr.ID())
	t.finish(status, "")
}

// failFull is the explicit form for callers that know the cause.
func (t *reqTrack) failFull(status int, err error, retryable bool, reason string, retryAfter time.Duration) {
	t.tr.SetError(err.Error())
	writeErrorFullID(t.w, status, err, retryable, reason, retryAfter, t.tr.ID())
	t.finish(status, "")
}

// attachBatchSpans adds the executed batch's stage timeline under
// parent: how long the coalescing window stayed open, the queue wait,
// and the replay. Stages a stubbed executor never stamped are skipped
// by Add.
func (t *reqTrack) attachBatchSpans(parent int, b *batch) {
	if b == nil {
		return
	}
	t.tr.Add("coalesce_wait", parent, b.created, b.dispatched)
	t.tr.Add("queue_wait", parent, b.dispatched, b.execStart)
	t.tr.Add("replay", parent, b.execStart, b.replayDone)
}

// observeBatchStages feeds the batch's stage durations into the
// serve_stage_us series, once per batch (not per coalesced member, so
// fan-out does not multiply stage weight).
func observeBatchStages(b *batch) {
	if !obs.Enabled {
		return
	}
	observeStage(stageCoalesceUS, b.created, b.dispatched)
	observeStage(stageQueueUS, b.dispatched, b.execStart)
	observeStage(stageReplayUS, b.execStart, b.replayDone)
}

func observeStage(h *obs.Histogram, start, end time.Time) {
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return
	}
	h.Observe(uint64(end.Sub(start).Microseconds()))
}
