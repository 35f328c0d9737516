// Pins the public error contract: every non-2xx response body is the
// versioned envelope {"error","reason","retryable","trace_id"}, with
// Retry-After set whenever the error is retryable — including errors
// that strike mid-way through an NDJSON stream.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
)

// decodeEnvelope asserts the body is a complete envelope and returns it.
func decodeEnvelope(t *testing.T, label string, body []byte) api.Error {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("%s: body is not JSON: %v\n%s", label, err, body)
	}
	for _, k := range []string{"error", "reason", "retryable", "trace_id"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("%s: envelope missing %q key: %s", label, k, body)
		}
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if e.Message == "" {
		t.Errorf("%s: empty error message", label)
	}
	// Under obsoff no trace IDs are minted; the key is still on the
	// wire (checked above) but its value is legitimately empty.
	if obs.Enabled && e.TraceID == "" {
		t.Errorf("%s: empty trace_id", label)
	}
	return e
}

func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestService(t, Options{})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantReason string
		retryable  bool
		wantMsg    string // a substring the message must carry, if set
	}{
		{"measure wrong method", http.MethodGet, "/v1/measure", "", 405, api.ReasonMethodNotAllowed, false, ""},
		{"mrc wrong method", http.MethodGet, "/v1/mrc", "", 405, api.ReasonMethodNotAllowed, false, ""},
		{"sweep wrong method", http.MethodGet, "/v1/sweep", "", 405, api.ReasonMethodNotAllowed, false, ""},
		{"measure bad json", http.MethodPost, "/v1/measure", "{nope", 400, api.ReasonBadRequest, false, ""},
		{"mrc bad json", http.MethodPost, "/v1/mrc", "{nope", 400, api.ReasonBadRequest, false, ""},
		{"sweep bad json", http.MethodPost, "/v1/sweep", "{nope", 400, api.ReasonBadRequest, false, ""},
		{"measure unknown workload", http.MethodPost, "/v1/measure", `{"workload":"no-such"}`, 400, api.ReasonBadRequest, false, ""},
		{"mrc unknown workload", http.MethodPost, "/v1/mrc", `{"workload":"no-such"}`, 400, api.ReasonBadRequest, false, ""},
		{"sweep unknown artifact", http.MethodPost, "/v1/sweep", `{"artifacts":["no-such"]}`, 400, api.ReasonBadRequest, false, ""},
		{"measure bad config", http.MethodPost, "/v1/measure", `{"workload":"goboard","config":{"main_bytes":7}}`, 400, api.ReasonBadRequest, false, ""},
		{"measure bad scale", http.MethodPost, "/v1/measure", `{"workload":"goboard","scale":"galactic"}`, 400, api.ReasonBadRequest, false, ""},
		// Strict decoding: a key the request type does not declare, at
		// any depth, or anything after the body's one JSON value is
		// refused, naming what was refused, instead of being dropped.
		{"measure unknown field", http.MethodPost, "/v1/measure", `{"workload":"goboard","confgs":[{"fvc_entries":64}]}`, 400, api.ReasonBadRequest, false, `"confgs"`},
		{"mrc unknown field", http.MethodPost, "/v1/mrc", `{"workload":"goboard","set_count":[1]}`, 400, api.ReasonBadRequest, false, `"set_count"`},
		{"sweep unknown field", http.MethodPost, "/v1/sweep", `{"artifacts":["tab1"],"scal":"test"}`, 400, api.ReasonBadRequest, false, `"scal"`},
		{"measure misspelled config field", http.MethodPost, "/v1/measure", `{"workload":"goboard","config":{"fvc_entires":64}}`, 400, api.ReasonBadRequest, false, `"fvc_entires"`},
		{"measure trailing data", http.MethodPost, "/v1/measure", `{"workload":"goboard"} garbage`, 400, api.ReasonBadRequest, false, "trailing data"},
		{"mrc trailing data", http.MethodPost, "/v1/mrc", `{"workload":"goboard"}{}`, 400, api.ReasonBadRequest, false, "trailing data"},
		{"sweep trailing data", http.MethodPost, "/v1/sweep", `{"artifacts":["tab1"]}]`, 400, api.ReasonBadRequest, false, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var buf [4096]byte
			n, _ := resp.Body.Read(buf[:])
			e := decodeEnvelope(t, tc.name, buf[:n])
			if e.Reason != tc.wantReason {
				t.Errorf("reason %q, want %q", e.Reason, tc.wantReason)
			}
			if e.Retryable != tc.retryable {
				t.Errorf("retryable %v, want %v", e.Retryable, tc.retryable)
			}
			if !strings.Contains(e.Message, tc.wantMsg) {
				t.Errorf("message %q does not name %s", e.Message, tc.wantMsg)
			}
			if e.TraceID != resp.Header.Get(api.HeaderRequestID) {
				t.Errorf("trace_id %q != %s header %q", e.TraceID, api.HeaderRequestID, resp.Header.Get(api.HeaderRequestID))
			}
			if tc.retryable && resp.Header.Get("Retry-After") == "" {
				t.Error("retryable error without Retry-After header")
			}
		})
	}
}

// TestErrorEnvelopeRetryable covers the retryable statuses: a saturated
// queue (429 overloaded) and a draining server (503), both of which
// must advertise Retry-After.
func TestErrorEnvelopeRetryable(t *testing.T) {
	sv, ts := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		started <- b.workload
		select {
		case <-release:
		case <-ctx.Done():
		}
		return make([]fvcache.MeasureResult, len(b.configs)), nil
	}
	post := func(wl string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workload":%q}`, wl)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	go func() { post("goboard").Body.Close() }()
	<-started
	go func() { post("ccomp").Body.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for len(sv.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post("strproc") // queue full -> 429
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	e := decodeEnvelope(t, "429", body)
	if e.Reason != api.ReasonOverloaded || !e.Retryable {
		t.Errorf("429 envelope: reason=%q retryable=%v", e.Reason, e.Retryable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)

	// Drain, then verify the 503 envelope.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = post("goboard")
	body, _ = readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	e = decodeEnvelope(t, "503", body)
	if e.Reason != api.ReasonDraining || !e.Retryable {
		t.Errorf("503 envelope: reason=%q retryable=%v", e.Reason, e.Retryable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestSweepMidStreamErrorEnvelope verifies that an error after the
// first streamed artifact line arrives as a terminal error_line holding
// the full envelope — the status is already 200 on the wire, so the
// envelope is the only way a client learns the stream died.
func TestSweepMidStreamErrorEnvelope(t *testing.T) {
	sv, ts := newTestService(t, Options{})
	sv.execSweep = func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error) {
		if req.OnArtifact != nil {
			req.OnArtifact(fvcache.ArtifactResult{ID: "figure-6"})
		}
		return nil, errors.New("disk melted mid-sweep")
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed sweep status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []api.SweepLine
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l api.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d stream lines, want artifact + error_line", len(lines))
	}
	if lines[0].Artifact == nil || lines[0].Artifact.ID != "figure-6" {
		t.Fatalf("first line is not the artifact: %+v", lines[0])
	}
	le := lines[1].Error
	if le == nil {
		t.Fatalf("terminal line is not an error_line: %+v", lines[1])
	}
	if le.Message == "" || le.Reason != api.ReasonInternal || (obs.Enabled && le.TraceID == "") {
		t.Errorf("mid-stream envelope incomplete: %+v", le)
	}
	if le.TraceID != resp.Header.Get(api.HeaderRequestID) {
		t.Errorf("mid-stream trace_id %q != header %q", le.TraceID, resp.Header.Get(api.HeaderRequestID))
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, err := resp.Body.Read(buf[:])
	if err != nil && n == 0 {
		return nil, err
	}
	return buf[:n], nil
}

// TestBatchInfoShapes pins the batch stanza of each execution path.
// The rows run in order against one cached server: the first computes
// two configs, so later rows hit them in full, in part, or repeated.
// A request answered without a batch is a batch of one carrying its
// own request ID; a request with misses reports its batch and counts
// only its own hits.
func TestBatchInfoShapes(t *testing.T) {
	cache, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Options{ResultCache: cache})

	const x, y, z = `{"fvc_entries":64}`, `{"main_bytes":8192}`, `{"assoc":2}`
	cases := []struct {
		name    string
		configs string
		want    api.BatchInfo
		ownID   bool     // trace_id is the request's own ID
		keys    []string // JSON keys the stanza must carry
	}{
		{"miss", x + "," + y, api.BatchInfo{Requests: 1, Configs: 2}, false,
			[]string{"requests", "configs", "coalesced", "trace_id"}},
		{"full hit", x + "," + y, api.BatchInfo{Requests: 1, Configs: 2, CacheHits: 2}, true,
			[]string{"requests", "configs", "coalesced", "cache_hits", "trace_id"}},
		{"repeated full hit", x + "," + x, api.BatchInfo{Requests: 1, Configs: 2, CacheHits: 2}, true,
			[]string{"requests", "configs", "coalesced", "cache_hits", "trace_id"}},
		{"partial hit", z + "," + x, api.BatchInfo{Requests: 1, Configs: 1, CacheHits: 1}, false,
			[]string{"requests", "configs", "coalesced", "cache_hits", "trace_id"}},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"workload":"goboard","configs":[%s]}`, tc.configs)
		resp, data := postJSON(t, ts.URL+"/v1/measure", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
		var raw struct {
			Batch map[string]json.RawMessage `json:"batch"`
		}
		var out api.MeasureResponse
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		got := out.Batch
		id := resp.Header.Get(api.HeaderRequestID)
		if (got.TraceID == id) != tc.ownID && obs.Enabled {
			t.Errorf("%s: trace_id %q vs request ID %q, want own=%v", tc.name, got.TraceID, id, tc.ownID)
		}
		got.TraceID = ""
		if got != tc.want {
			t.Errorf("%s: batch %+v, want %+v", tc.name, got, tc.want)
		}
		for _, k := range tc.keys {
			if k == "trace_id" && !obs.Enabled && tc.ownID {
				continue // no request IDs are minted under obsoff
			}
			if _, ok := raw.Batch[k]; !ok {
				t.Errorf("%s: batch stanza lacks %q: %s", tc.name, k, data)
			}
		}
	}
}
