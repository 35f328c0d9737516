// End-to-end tests for the request observability layer: trace IDs
// (inbound and minted) echoed on responses and error bodies, the
// /debug/requests flight recorder, and span trees whose stage
// durations account for the reported end-to-end latency.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fvcache"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
)

// debugRequests fetches and decodes /debug/requests.
func debugRequests(t *testing.T, base, query string) []obs.RequestTrace {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Count  int                `json:"count"`
		Traces []obs.RequestTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// TestRequestTraceEndToEnd serves one cache-missing measurement and
// checks the acceptance contract: the response carries a trace ID,
// /debug/requests returns a well-formed span tree for it, and the
// root-level stage durations sum (within slop) to the reported
// end-to-end latency.
func TestRequestTraceEndToEnd(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	cache, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Options{CoalesceWindow: 5 * time.Millisecond, ResultCache: cache})

	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard","scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response carries no X-Request-Id header")
	}
	var out measureRespWire
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Batch.TraceID == "" {
		t.Error("batch stanza carries no trace_id")
	}

	traces := debugRequests(t, ts.URL, "")
	var mine *obs.RequestTrace
	var batchTrace *obs.RequestTrace
	for i := range traces {
		switch traces[i].ID {
		case reqID:
			mine = &traces[i]
		case out.Batch.TraceID:
			batchTrace = &traces[i]
		}
	}
	if mine == nil {
		t.Fatalf("request %s not in /debug/requests (%d traces)", reqID, len(traces))
	}
	if batchTrace == nil {
		t.Errorf("batch trace %s not in /debug/requests", out.Batch.TraceID)
	}
	if mine.Endpoint != "measure" || mine.Status != http.StatusOK || mine.Workload != "goboard" {
		t.Errorf("trace fields: %+v", mine)
	}
	if mine.Outcome == "" {
		t.Error("trace has no outcome class")
	}

	// Well-formed span tree: named spans, parents precede children.
	// (The same checks ValidateSnapshot applies to exported telemetry.)
	names := map[string]bool{}
	var rootSum int64
	for i, sp := range mine.Spans {
		if sp.Name == "" {
			t.Fatalf("span %d unnamed", i)
		}
		if sp.Parent < -1 || sp.Parent >= i {
			t.Fatalf("span %q has parent %d at index %d", sp.Name, sp.Parent, i)
		}
		names[sp.Name] = true
		if sp.Parent == -1 {
			rootSum += sp.DurationUS
		}
	}
	for _, want := range []string{"parse", "cache_probe", "batch_wait", "encode"} {
		if !names[want] {
			t.Errorf("span %q missing from trace: %+v", want, mine.Spans)
		}
	}
	// The root-level stages tile the request: their durations must
	// account for the end-to-end latency within measurement slop (the
	// gaps are a breaker check and channel handoffs).
	slopUS := int64(5000) // 5ms absolute floor for CI jitter
	if diff := mine.DurationUS - rootSum; diff < -slopUS || diff > mine.DurationUS/4+slopUS {
		t.Errorf("root spans sum to %dus but request took %dus", rootSum, mine.DurationUS)
	}

	// The batch trace carries the pipeline stages. The cache probe is
	// the request's own stage, not the batch's: only misses get here.
	if batchTrace != nil {
		bNames := map[string]bool{}
		for _, sp := range batchTrace.Spans {
			bNames[sp.Name] = true
		}
		for _, want := range []string{"coalesce_wait", "queue_wait", "replay"} {
			if !bNames[want] {
				t.Errorf("batch trace missing span %q: %+v", want, batchTrace.Spans)
			}
		}
		if bNames["cache_probe"] {
			t.Errorf("batch trace still probes the cache: %+v", batchTrace.Spans)
		}
	}
}

// TestInboundTraceIDHonored checks X-Request-Id and traceparent
// propagation end to end.
func TestInboundTraceIDHonored(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	_, ts := newTestService(t, Options{CoalesceWindow: time.Millisecond})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/measure",
		strings.NewReader(`{"workload":"goboard","scale":"test"}`))
	req.Header.Set("X-Request-Id", "my-test-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-test-trace-1" {
		t.Errorf("echoed id %q, want my-test-trace-1", got)
	}

	req, _ = http.NewRequest("POST", ts.URL+"/v1/measure",
		strings.NewReader(`{"workload":"goboard","scale":"test"}`))
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("traceparent-derived id %q", got)
	}

	found := 0
	for _, tr := range debugRequests(t, ts.URL, "") {
		if tr.ID == "my-test-trace-1" || tr.ID == "4bf92f3577b34da6a3ce929d0e0e4736" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("found %d/2 inbound-ID traces in the flight recorder", found)
	}
}

// TestErrorBodiesCarryTraceID checks that every rejection class echoes
// the trace ID in its JSON body and that 429/503/504 all carry
// Retry-After.
func TestErrorBodiesCarryTraceID(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	sv, ts := newTestService(t, Options{
		Workers: 1, QueueDepth: 1, CoalesceWindow: time.Millisecond,
	})
	block := make(chan struct{})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		<-block
		return make([]fvcache.MeasureResult, len(b.configs)), nil
	}
	defer close(block)

	// 400: bad request still carries a trace id.
	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ew errorWire
	if err := json.Unmarshal(data, &ew); err != nil {
		t.Fatal(err)
	}
	if ew.TraceID == "" || ew.TraceID != resp.Header.Get("X-Request-Id") {
		t.Errorf("400 body trace_id %q, header %q", ew.TraceID, resp.Header.Get("X-Request-Id"))
	}

	// 504: deadline fires while the executor blocks; Retry-After
	// must be present.
	resp, data = postJSON(t, ts.URL+"/v1/measure",
		`{"workload":"goboard","scale":"test","deadline_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &ew); err != nil {
		t.Fatal(err)
	}
	if ew.TraceID == "" {
		t.Error("504 body carries no trace_id")
	}
	if !ew.Retryable || ew.Reason != "deadline_exceeded" {
		t.Errorf("504 body: %+v", ew)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 carries no Retry-After header")
	}

	// Saturate queue + workers for a 429 (distinct workloads so nothing
	// coalesces: one executing + one queued + the rest rejected). The
	// first workload is held back as the probe; the sleep lets the
	// saturation batches dispatch first so the probe cannot win the
	// lone queue slot, and the probe's own deadline unsticks it (504,
	// retried) if it ever does.
	wl := fvcache.Workloads()
	probe := fmt.Sprintf(`{"workload":%q,"scale":"test","deadline_ms":500}`, wl[0].Name)
	for i := 1; i < len(wl); i++ {
		body := fmt.Sprintf(`{"workload":%q,"scale":"test"}`, wl[i].Name)
		go http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
	}
	time.Sleep(200 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	saw429 := false
	for time.Now().Before(deadline) && !saw429 {
		resp, data = postJSON(t, ts.URL+"/v1/measure", probe)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if err := json.Unmarshal(data, &ew); err != nil {
				t.Fatal(err)
			}
			if ew.TraceID == "" {
				t.Error("429 body carries no trace_id")
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 carries no Retry-After header")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw429 {
		t.Error("never observed a 429 despite saturated queue")
	}
}

// TestDebugRequestsFiltersHTTP checks ?slowest= and ?errors= against a
// live server.
func TestDebugRequestsFiltersHTTP(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	_, ts := newTestService(t, Options{CoalesceWindow: time.Millisecond})
	postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard","scale":"test"}`)
	postJSON(t, ts.URL+"/v1/measure", `{"workload":"bad-workload"}`)

	errsOnly := debugRequests(t, ts.URL, "?errors=1")
	if len(errsOnly) == 0 {
		t.Fatal("errors filter returned nothing")
	}
	for _, tr := range errsOnly {
		if tr.Status < 400 {
			t.Errorf("errors filter leaked status %d", tr.Status)
		}
	}
	slow := debugRequests(t, ts.URL, "?slowest=1")
	if len(slow) != 1 {
		t.Fatalf("slowest=1 returned %d traces", len(slow))
	}
}

// TestMRCSummaryCarriesTraceID checks the /v1/mrc summary stanza.
func TestMRCSummaryCarriesTraceID(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	_, ts := newTestService(t, Options{})
	resp, data := postJSON(t, ts.URL+"/v1/mrc",
		`{"workload":"goboard","scale":"test","max_size_bytes":65536}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var summary struct {
		Summary mrcSummaryWire `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Summary.TraceID == "" {
		t.Error("mrc summary carries no trace_id")
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("mrc response carries no X-Request-Id")
	}
}

// TestServeHistogramsExactAndMergeable pins the one histogram type on
// the serving path: the batch-size, sweep-task and request-latency
// series (including a 405 on a GET-only endpoint) all export exact
// quantiles, and folding a peer's snapshot in adds every bucket count.
func TestServeHistogramsExactAndMergeable(t *testing.T) {
	if !obs.Enabled {
		t.Skip("telemetry compiled out")
	}
	_, ts := newTestService(t, Options{CoalesceWindow: time.Millisecond})
	if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: status %d (%s)", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"artifacts":["tab1"],"scale":"test"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d (%s)", resp.StatusCode, data)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/workloads", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/workloads: status %d, want 405", resp.StatusCode)
	}

	series := []string{
		"serve_batch_configs",
		"sweep_task_ms",
		`serve_latency_us{endpoint="workloads",outcome="error"}`,
	}
	local := obs.Default.Snapshot()
	for _, name := range series {
		if h, ok := local.Histograms[name]; !ok || h.Count == 0 || h.P99 == 0 {
			t.Errorf("%s: histogram %+v (present %v), want observations and a non-zero p99", name, h, ok)
		}
	}

	// A peer's snapshot arrives as JSON; merging it must double every
	// count exactly and leave the quantiles where they were.
	raw, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	var merged, peer obs.Snapshot
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &peer); err != nil {
		t.Fatal(err)
	}
	if err := obs.MergeSnapshots(&merged, &peer); err != nil {
		t.Fatal(err)
	}
	for _, name := range series {
		got, want := merged.Histograms[name], local.Histograms[name]
		if got.Count != 2*want.Count || got.Sum != 2*want.Sum || got.P99 != want.P99 || len(got.Buckets) != len(want.Buckets) {
			t.Errorf("%s: merged %+v from %+v", name, got, want)
			continue
		}
		for i, b := range got.Buckets {
			if b.Le != want.Buckets[i].Le || b.Count != 2*want.Buckets[i].Count {
				t.Errorf("%s: merged bucket %d = %+v, want le %d count %d", name, i, b, want.Buckets[i].Le, 2*want.Buckets[i].Count)
			}
		}
	}
}
