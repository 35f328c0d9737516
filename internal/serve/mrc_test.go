// End-to-end tests for /v1/mrc: request validation, coalescing of
// identical concurrent misses into one MRC batch, durable result-cache
// warm hits (bit-identical replies), and NDJSON streaming.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/resultcache"
)

// mrcLines splits an NDJSON body into its point lines and the summary.
func mrcLines(t *testing.T, body []byte) (points []api.MRCPoint, summary api.MRCSummary) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", line)
		}
		var wrap struct {
			Point   *api.MRCPoint   `json:"point"`
			Summary *api.MRCSummary `json:"summary"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			t.Fatalf("non-JSON NDJSON line %q: %v", line, err)
		}
		switch {
		case wrap.Point != nil:
			points = append(points, *wrap.Point)
		case wrap.Summary != nil:
			summary = *wrap.Summary
			sawSummary = true
		default:
			t.Fatalf("line is neither point nor summary: %s", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatalf("no summary line in body:\n%s", body)
	}
	return points, summary
}

// TestMRCBadRequests is the endpoint's 4xx table.
func TestMRCBadRequests(t *testing.T) {
	_, ts := newTestService(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/mrc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"workload":`},
		{"unknown workload", `{"workload":"nope"}`},
		{"bad scale", `{"workload":"goboard","scale":"huge"}`},
		{"non-pow2 line", `{"workload":"goboard","line_bytes":24}`},
		{"line below word", `{"workload":"goboard","line_bytes":2}`},
		{"non-pow2 sets", `{"workload":"goboard","set_counts":[3]}`},
		{"sets above max", `{"workload":"goboard","max_size_bytes":1024,"set_counts":[64]}`},
		{"negative deadline", `{"workload":"goboard","deadline_ms":-5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/mrc", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", resp.StatusCode, data)
			}
			var e api.Error
			if err := json.Unmarshal(data, &e); err != nil || e.Message == "" {
				t.Errorf("malformed error body: %s", data)
			}
			if e.Retryable {
				t.Errorf("4xx marked retryable: %s", data)
			}
		})
	}
}

// TestMRCEndToEnd drives a real analysis through the endpoint and
// cross-checks the streamed curve against a direct facade call.
func TestMRCEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Options{})

	resp, data := postJSON(t, ts.URL+"/v1/mrc",
		`{"workload":"goboard","scale":"test","line_bytes":32,"max_size_bytes":16384,"set_counts":[1,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	points, sum := mrcLines(t, data)

	want, err := fvcache.MissRateCurves(context.Background(), fvcache.MRCRequest{
		Workload: "goboard", Scale: fvcache.Test,
		LineBytes: 32, MaxSizeBytes: 16384, SetCounts: []int{1, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantPoints []api.MRCPoint
	for _, c := range want.Curves {
		for _, p := range c.Points {
			wantPoints = append(wantPoints, api.MRCPoint{
				Sets: c.Sets, SizeBytes: p.SizeBytes, Assoc: p.Assoc,
				Misses: p.Misses, MissRatio: p.MissRatio,
			})
		}
	}
	if len(points) != len(wantPoints) {
		t.Fatalf("%d streamed points, want %d", len(points), len(wantPoints))
	}
	for i := range points {
		if points[i] != wantPoints[i] {
			t.Errorf("point %d: got %+v, want %+v", i, points[i], wantPoints[i])
		}
	}
	if sum.Accesses != want.Accesses || sum.Loads != want.Loads ||
		sum.Stores != want.Stores || sum.DistinctLines != want.DistinctLines {
		t.Errorf("summary totals diverge: %+v vs %+v", sum, want)
	}
	if sum.Curves != 2 || sum.Points != len(wantPoints) || sum.CacheHit {
		t.Errorf("summary malformed: %+v", sum)
	}
}

// TestMRCCoalescing: identical concurrent requests share ONE MRC
// batch. The exec hook is stubbed to block until every client has
// joined, so coalescing cannot be timing-dependent.
func TestMRCCoalescing(t *testing.T) {
	const clients = 6
	sv, ts := newTestService(t, Options{})

	release := make(chan struct{})
	var nExec atomic.Int32
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		nExec.Add(1)
		<-release
		return stubResults(b), nil
	}

	body := `{"workload":"goboard","line_bytes":32,"max_size_bytes":32}`
	var wg sync.WaitGroup
	summaries := make([]api.MRCSummary, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/mrc", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			_, summaries[i] = mrcLines(t, data)
		}()
	}
	// Release only after every client holds a seat in the batch.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sv.mu.Lock()
		joined := 0
		for _, b := range sv.pending {
			joined += len(b.subs)
		}
		sv.mu.Unlock()
		if joined >= clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the batch", joined, clients)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := nExec.Load(); n != 1 {
		t.Errorf("%d analysis executions for %d identical requests, want 1", n, clients)
	}
	for i, s := range summaries {
		if s.Requests != clients || !s.Coalesced {
			t.Errorf("client %d: summary %+v, want requests=%d coalesced=true", i, s, clients)
		}
		if s.Accesses != 100 {
			t.Errorf("client %d: wrong curve delivered: %+v", i, s)
		}
	}
}

// TestMRCResultCacheWarmHit: a repeated request is answered from the
// durable result cache — no second analysis pass — and its streamed
// point lines are bit-identical to the cold reply.
func TestMRCResultCacheWarmHit(t *testing.T) {
	cache, err := resultcache.Open(resultcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sv, ts := newTestService(t, Options{ResultCache: cache})

	nExec := 0
	inner := sv.exec
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		nExec++
		return inner(ctx, b)
	}

	body := `{"workload":"strproc","line_bytes":32,"max_size_bytes":8192,"set_counts":[1,8]}`
	resp, cold := postJSON(t, ts.URL+"/v1/mrc", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	_, coldSum := mrcLines(t, cold)
	if coldSum.CacheHit {
		t.Fatal("cold request reported a cache hit")
	}
	if nExec != 1 {
		t.Fatalf("cold request ran %d passes, want 1", nExec)
	}

	resp, warm := postJSON(t, ts.URL+"/v1/mrc", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	warmPoints, warmSum := mrcLines(t, warm)
	if !warmSum.CacheHit {
		t.Error("warm request did not report a cache hit")
	}
	if nExec != 1 {
		t.Errorf("warm request re-ran the analysis (%d passes)", nExec)
	}

	// Bit-identity of the curve: the point-line prefix of both replies
	// must match byte for byte (the summary differs only in cache_hit).
	coldPrefix := cold[:bytes.LastIndexByte(cold[:len(cold)-1], '\n')+1]
	warmPrefix := warm[:bytes.LastIndexByte(warm[:len(warm)-1], '\n')+1]
	if !bytes.Equal(coldPrefix, warmPrefix) {
		t.Errorf("warm point stream diverges from cold:\ncold: %s\nwarm: %s", coldPrefix, warmPrefix)
	}
	if warmSum.Accesses != coldSum.Accesses || warmSum.Loads != coldSum.Loads ||
		warmSum.Stores != coldSum.Stores || warmSum.DistinctLines != coldSum.DistinctLines ||
		warmSum.Points != coldSum.Points {
		t.Errorf("warm summary diverges: %+v vs %+v", warmSum, coldSum)
	}
	if len(warmPoints) != warmSum.Points {
		t.Errorf("streamed %d points, summary says %d", len(warmPoints), warmSum.Points)
	}

	// The cached reply must also survive a cache reopen (durability).
	if got, ok := cache.Get(mrcCacheKey(mustMRCReq(t, "strproc"))); !ok || len(got) == 0 {
		t.Error("curve not present in the durable cache")
	}
}

func mustMRCReq(t *testing.T, w string) fvcache.MRCRequest {
	t.Helper()
	req, err := fvcache.MRCRequest{
		Workload: w, Scale: fvcache.Test,
		LineBytes: 32, MaxSizeBytes: 8192, SetCounts: []int{1, 8},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestMRCCodecRoundTrip pins the cache framing: encode → decode is the
// identity, and a shape mismatch is rejected rather than misread.
func TestMRCCodecRoundTrip(t *testing.T) {
	req, err := fvcache.MRCRequest{
		Workload: "goboard", Scale: fvcache.Test,
		LineBytes: 64, MaxSizeBytes: 1 << 10, SetCounts: []int{1, 4},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fvcache.MissRateCurves(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := decodeMRC(encodeMRC(res), req)
	if !ok {
		t.Fatal("decode rejected its own encoding")
	}
	if a, b := mustJSON(t, res), mustJSON(t, dec); a != b {
		t.Errorf("round trip diverges:\n%s\n%s", a, b)
	}
	if _, ok := decodeMRC(encodeMRC(res)[:2], req); ok {
		t.Error("truncated entry decoded successfully")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMRCDrainingRejects: a draining server refuses new MRC work with
// a retryable 503.
func TestMRCDrainingRejects(t *testing.T) {
	sv := New(Options{})
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/mrc", `{"workload":"goboard"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	var e api.Error
	if err := json.Unmarshal(data, &e); err != nil || !e.Retryable {
		t.Errorf("drain rejection must be retryable: %s", data)
	}
}
