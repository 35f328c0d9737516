// Fuzz tests for the /v1/measure, /v1/mrc and /v1/sweep request
// decoders: any body and query string must get a well-formed answer
// from Handler(), never a panic, and a body with a top-level key its
// request type does not declare, or with bytes after its JSON value,
// never gets a 200. The exec hooks are stubbed to answer at once, so
// the fuzzers exercise parsing, validation, keying, coalescing and
// encoding, not the engines.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/obs"
)

// fuzzServer is a one-worker server whose exec answers every batch at
// once with stubResults.
func fuzzServer(f *testing.F) *Server {
	sv := New(Options{Workers: 1})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		return stubResults(b), nil
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sv.Shutdown(ctx)
	})
	return sv
}

// serveFuzz posts body to path with the raw query string, straight into
// the handler.
func serveFuzz(sv *Server, path string, body []byte, query string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	return rec
}

// checkRefusal asserts that a non-200 answer is the error envelope,
// with a message, a reason and the request's trace ID (when telemetry
// is compiled in: without it no trace IDs exist), and that a 504
// only answers a request that asked for a deadline under a second (the
// stubbed executor answers at once).
func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder, body []byte, query string) {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Message == "" || e.Reason == "" || obs.Enabled && e.TraceID == "" {
		t.Fatalf("status %d: malformed error envelope %q", rec.Code, rec.Body.Bytes())
	}
	if rec.Code < 400 {
		t.Fatalf("status %d is neither 200 nor an error", rec.Code)
	}
	if rec.Code == http.StatusGatewayTimeout && askedDeadlineMS(body, query) >= 1000 {
		t.Fatalf("504 for a request with a deadline of at least 1s: %q ?%s: %s", body, query, rec.Body.Bytes())
	}
}

// askedDeadlineMS is the deadline a request asked for, the query's
// deadline_ms over the body's, or 0 for none.
func askedDeadlineMS(body []byte, query string) int64 {
	var req struct {
		DeadlineMS int64 `json:"deadline_ms"`
	}
	json.Unmarshal(body, &req)
	q, _ := url.ParseQuery(query)
	if v := q.Get("deadline_ms"); v != "" {
		req.DeadlineMS, _ = strconv.ParseInt(v, 10, 64)
	}
	return req.DeadlineMS
}

// strictViolation names what a strict decoder must refuse in body: a
// top-level key that req's type does not declare (matched as
// encoding/json matches keys, case-folded), or non-space bytes after
// the first JSON value. It returns "" when neither applies, including
// for bodies that are not a JSON object at all.
func strictViolation(body []byte, req any) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	var top map[string]json.RawMessage
	if err := dec.Decode(&top); err != nil {
		return ""
	}
	if rest := bytes.Trim(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Sprintf("trailing data %q", rest)
	}
	rt := reflect.TypeOf(req)
	for key := range top {
		declared := false
		for i := 0; i < rt.NumField(); i++ {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			if name == "" {
				name = rt.Field(i).Name
			}
			declared = declared || name != "-" && strings.EqualFold(name, key)
		}
		if !declared {
			return fmt.Sprintf("unknown field %q", key)
		}
	}
	return ""
}

// fuzzSeeds adds every body under each query.
func fuzzSeeds(f *testing.F, bodies []string) {
	for _, q := range []string{"", "deadline_ms=5000", "deadline_ms=abc", "deadline_ms=-1"} {
		for _, b := range bodies {
			f.Add([]byte(b), q)
		}
	}
}

func FuzzMeasureRequest(f *testing.F) {
	fuzzSeeds(f, []string{
		`{"workload":"goboard"}`,
		`{"workload":"strproc","scale":"test","configs":[{"main_bytes":16384},{"main_bytes":16384,"fvc_entries":512}]}`,
		`{"workload":"goboard","config":{"fvc_entries":256,"fvt":"profile"},"options":{"warmup_accesses":10}}`,
		`{"workload":"goboard","deadline_ms":20}`,
		`{"workload":"nope"}`,
		`{"workload":"goboard","scale":"huge"}`,
		`{"workload":"goboard","configs":[{"main_bytes":3}]}`,
		`{"workload":`,
		`[]`,
		``,
	})
	sv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		rec := serveFuzz(sv, "/v1/measure", body, query)
		if rec.Code != http.StatusOK {
			checkRefusal(t, rec, body, query)
			return
		}
		if why := strictViolation(body, api.MeasureRequest{}); why != "" {
			t.Fatalf("200 for a body with %s: %q", why, body)
		}
		var out api.MeasureResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("200 body is not a measure response: %v", err)
		}
		if len(out.Results) == 0 || out.Batch.Requests < 1 || obs.Enabled && out.Batch.TraceID == "" {
			t.Fatalf("200 body malformed: %+v", out)
		}
	})
}

func FuzzMRCRequest(f *testing.F) {
	fuzzSeeds(f, []string{
		`{"workload":"goboard"}`,
		`{"workload":"goboard","scale":"test","line_bytes":32,"max_size_bytes":65536,"set_counts":[1,256]}`,
		`{"workload":"strproc","line_bytes":64,"max_size_bytes":1024,"set_counts":[4,1,4]}`,
		`{"workload":"goboard","deadline_ms":20}`,
		`{"workload":"goboard","line_bytes":24}`,
		`{"workload":"goboard","max_size_bytes":1024,"set_counts":[64]}`,
		`{"workload":"goboard","set_counts":[0]}`,
		`{"workload":`,
		``,
	})
	sv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		rec := serveFuzz(sv, "/v1/mrc", body, query)
		if rec.Code != http.StatusOK {
			checkRefusal(t, rec, body, query)
			return
		}
		if why := strictViolation(body, api.MRCRequest{}); why != "" {
			t.Fatalf("200 for a body with %s: %q", why, body)
		}
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var sum *api.MRCSummary
		points := 0
		for sc.Scan() {
			var line api.MRCLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("non-JSON NDJSON line %q: %v", sc.Bytes(), err)
			}
			switch {
			case sum != nil:
				t.Fatalf("line after the summary: %s", sc.Bytes())
			case line.Point != nil:
				points++
			case line.Summary != nil:
				sum = line.Summary
			default:
				t.Fatalf("line is neither point nor summary: %s", sc.Bytes())
			}
		}
		if sum == nil {
			t.Fatalf("200 stream has no summary: %s", rec.Body.Bytes())
		}
		// Every requested set count is a curve of at least one point.
		if sum.Points != points || sum.Curves < 1 || points < sum.Curves || obs.Enabled && sum.TraceID == "" {
			t.Fatalf("summary %+v after %d points", sum, points)
		}
	})
}

func FuzzSweepRequest(f *testing.F) {
	fuzzSeeds(f, []string{
		`{}`,
		`{"artifacts":["tab1"],"scale":"test"}`,
		`{"artifacts":["fig10","tab1"],"scale":"train","markdown":true,"workers":2}`,
		`{"workers":1000000}`,
		`{"workers":-1}`,
		`{"scale":"huge"}`,
		`{"artifacts":`,
		`[]`,
		``,
	})
	sv := fuzzServer(f)
	// The stub streams one artifact whose output echoes the workers it
	// was given.
	sv.execSweep = func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error) {
		ar := fvcache.ArtifactResult{ID: "stub", Status: "done", Output: strconv.Itoa(req.Workers)}
		req.OnArtifact(ar)
		return &fvcache.SweepResult{Artifacts: []fvcache.ArtifactResult{ar}, Done: 1}, nil
	}
	pool := sv.opt.Workers
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		rec := serveFuzz(sv, "/v1/sweep", body, query)
		if rec.Code != http.StatusOK {
			checkRefusal(t, rec, body, query)
			return
		}
		if why := strictViolation(body, api.SweepRequest{}); why != "" {
			t.Fatalf("200 for a body with %s: %q", why, body)
		}
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var sum *fvcache.SweepResult
		artifacts := 0
		for sc.Scan() {
			var line api.SweepLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("non-JSON NDJSON line %q: %v", sc.Bytes(), err)
			}
			switch {
			case sum != nil:
				t.Fatalf("line after the summary: %s", sc.Bytes())
			case line.Artifact != nil && line.Summary == nil && line.Error == nil:
				artifacts++
				if w, err := strconv.Atoi(line.Artifact.Output); err != nil || w < 1 || w > pool {
					t.Fatalf("sweep ran with workers %q, want [1, %d]: %q", line.Artifact.Output, pool, body)
				}
			case line.Summary != nil && line.Artifact == nil && line.Error == nil:
				sum = line.Summary
			default:
				t.Fatalf("line is neither artifact nor summary: %s", sc.Bytes())
			}
		}
		if sum == nil {
			t.Fatalf("200 stream has no summary: %s", rec.Body.Bytes())
		}
		if artifacts != 1 || sum.Done != 1 || len(sum.Artifacts) != 1 {
			t.Fatalf("summary %+v after %d artifacts", sum, artifacts)
		}
	})
}
