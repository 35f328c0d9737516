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
	"strconv"
	"time"

	"fvcache/api"
	"fvcache/internal/obs"
	"fvcache/internal/obs/reqtrace"
)

// Serving stages whose durations feed the serve_stage_us{stage=...}
// quantile series (the per-stage time attribution BENCH_serve.json
// reports): parse, cache_probe and encode once per request; queue
// wait and replay once per batch.
var (
	stageParseUS   = stageSeries("parse")
	stageQueueUS   = stageSeries("queue_wait")
	stageCacheUS   = stageSeries("cache_probe")
	stageReplayUS  = stageSeries("replay")
	stageEncodeUS  = stageSeries("encode")
	stageForwardUS = stageSeries("forward")
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
	// inflight is set once open counts the request in the in-flight
	// gauge; finish takes it back out.
	inflight bool
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
	if t.inflight {
		inflightReqs.Set(inflightDelta(-1))
	}
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

// fail renders err with the status's default retry semantics and seals
// the trace: 429/503/504 are retryable (each with a Retry-After),
// everything else is the request's or the server's fault and retrying
// verbatim cannot help.
func (t *reqTrack) fail(status int, err error) {
	e := &api.Error{Message: err.Error(), Reason: api.ReasonBadRequest, TraceID: t.tr.ID()}
	switch {
	case status == http.StatusTooManyRequests:
		e.RetryAfter, e.Reason = time.Second, api.ReasonOverloaded
	case status == http.StatusServiceUnavailable:
		e.RetryAfter, e.Reason = 5*time.Second, api.ReasonDraining
	case status == http.StatusGatewayTimeout:
		e.RetryAfter, e.Reason = time.Second, api.ReasonDeadlineExceeded
	case status == http.StatusMethodNotAllowed:
		e.Reason = api.ReasonMethodNotAllowed
	case status >= 500:
		e.Reason = api.ReasonInternal
	}
	e.Retryable = e.RetryAfter > 0
	t.reply(status, e)
}

// reply answers with the error envelope e — its trace ID rides in the
// body, so a client can quote it against /debug/requests — plus a
// Retry-After header when e has one, and seals the trace.
func (t *reqTrack) reply(status int, e *api.Error) {
	if e.RetryAfter > 0 {
		secs := int64((e.RetryAfter + time.Second - 1) / time.Second)
		t.w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	t.tr.SetError(e.Message)
	writeJSON(t.w, status, e)
	t.finish(status, "")
}

// stageClock times one serving stage of a request: a span in its trace
// and one serve_stage_us{stage} sample, both from the same two clock
// readings, so the trace and the histogram cannot disagree.
type stageClock struct {
	tr    *reqtrace.Trace
	span  int
	hist  *obs.Histogram
	start time.Time
}

// stage starts the named stage now; hist is its serve_stage_us series.
func (t *reqTrack) stage(name string, hist *obs.Histogram) stageClock {
	now := time.Now()
	return stageClock{tr: t.tr, span: t.tr.BeginAt(name, -1, now), hist: hist, start: now}
}

// end closes the stage's span and observes its duration.
func (c stageClock) end() {
	now := time.Now()
	c.tr.EndAt(c.span, now)
	observeStage(c.hist, c.start, now)
}

// attachBatchSpans adds the executed batch's stage timeline under
// parent: the queue wait from the batch's opening to a worker taking
// it, and the replay. Stages a stubbed executor never stamped are
// skipped by Add.
func (t *reqTrack) attachBatchSpans(parent int, b *batch) {
	if b == nil {
		return
	}
	t.tr.Add("queue_wait", parent, b.created, b.execStart)
	t.tr.Add("replay", parent, b.execStart, b.replayDone)
}

// observeBatchStages feeds the batch's stage durations into the
// serve_stage_us series, once per batch (not per coalesced member, so
// fan-out does not multiply stage weight).
func observeBatchStages(b *batch) {
	if !obs.Enabled {
		return
	}
	observeStage(stageQueueUS, b.created, b.execStart)
	observeStage(stageReplayUS, b.execStart, b.replayDone)
}

func observeStage(h *obs.Histogram, start, end time.Time) {
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return
	}
	h.Observe(uint64(end.Sub(start).Microseconds()))
}
