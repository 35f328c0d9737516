// End-to-end tests for the fvcached service layer: coalescing of
// concurrent identical requests into fewer batch executions, queue
// backpressure (429), graceful drain, and wire-level validation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
)

func newTestService(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	sv := New(opt)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return sv, ts
}

// stubResults is a stub exec's answer for b: one zero measurement per
// config, or, for an MRC batch, curves of the request's shape over 100
// accesses (60 loads, 40 stores, 10 distinct lines) in which every
// point misses 50, framed as execBatch frames them.
func stubResults(b *batch) []fvcache.MeasureResult {
	if b.mrc == nil {
		return make([]fvcache.MeasureResult, len(b.configs))
	}
	res := &fvcache.MRCResult{Loads: 60, Stores: 40, DistinctLines: 10}
	for i, n := range b.mrc.LadderPoints() {
		c := fvcache.MRCCurve{Sets: b.mrc.SetCounts[i], Points: make([]fvcache.MRCPoint, n)}
		for j := range c.Points {
			c.Points[j].Misses = 50
		}
		res.Curves = append(res.Curves, c)
	}
	return encodeMRC(res)
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestCoalescingFusesRequests is the tentpole proof: K concurrent
// clients issuing the same measurement must observe fewer batch
// executions than requests, and every client's numbers must agree with
// a direct engine call.
func TestCoalescingFusesRequests(t *testing.T) {
	const clients = 8
	sv, ts := newTestService(t, Options{})

	body := `{"workload":"goboard","scale":"test","configs":[` +
		`{"main_bytes":8192},{"main_bytes":8192,"fvc_entries":256}]}`
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		resps []api.MeasureResponse
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var out api.MeasureResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			resps = append(resps, out)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(resps) != clients {
		t.Fatalf("%d/%d requests succeeded", len(resps), clients)
	}

	st := sv.ServerStats()
	if st.Batches >= clients {
		t.Errorf("coalescing failed: %d batch executions for %d identical requests", st.Batches, clients)
	}
	if st.Coalesced == 0 {
		t.Error("no request reported as coalesced")
	}
	t.Logf("%d requests -> %d batch executions (%d coalesced)", clients, st.Batches, st.Coalesced)

	// Every client must receive the same, correct results.
	want, err := fvcache.MeasureBatch(context.Background(), fvcache.MeasureBatchRequest{
		Workload: "goboard", Scale: fvcache.Test,
		Configs: []fvcache.Config{
			{Main: fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}},
			func() fvcache.Config {
				values, err := fvcache.Profile(context.Background(),
					fvcache.ProfileRequest{Workload: "goboard", Scale: fvcache.Test, K: fvcache.MaxFVTValues(3)})
				if err != nil {
					t.Fatal(err)
				}
				return fvcache.Config{
					Main:           fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
					FVC:            &fvcache.FVCParams{Entries: 256, LineBytes: 32, Bits: 3},
					FrequentValues: values,
				}
			}(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCoalesced := false
	for _, r := range resps {
		if len(r.Results) != 2 {
			t.Fatalf("response carries %d results, want 2", len(r.Results))
		}
		for i := range r.Results {
			if r.Results[i].Stats != want[i].Stats {
				t.Errorf("config %d: served stats diverged from direct engine call:\n got %+v\nwant %+v",
					i, r.Results[i].Stats, want[i].Stats)
			}
		}
		if r.Batch.Coalesced {
			sawCoalesced = true
			if r.Batch.Requests < 2 {
				t.Errorf("coalesced batch reports %d requests", r.Batch.Requests)
			}
		}
	}
	if !sawCoalesced {
		t.Error("no response carried a coalesced batch stanza")
	}
}

// TestMissJoinsRunningBatch pins the lone worker inside batch 1, whose
// only request carries a 30s deadline, and then sends one more request
// for the same key. The request may join the running batch only if the
// batch already replays every config it misses and outlives its
// deadline. Otherwise it opens a fresh batch, which waits in the queue.
func TestMissJoinsRunningBatch(t *testing.T) {
	const first = `{"workload":"goboard","configs":[{"main_bytes":8192}],"deadline_ms":30000}`
	cases := []struct {
		name, body string
		joins      bool
	}{
		{"identical", `{"workload":"goboard","configs":[{"main_bytes":8192}],"deadline_ms":20000}`, true},
		{"extra config", `{"workload":"goboard","configs":[{"main_bytes":8192},{"main_bytes":16384}],"deadline_ms":20000}`, false},
		{"no deadline", `{"workload":"goboard","configs":[{"main_bytes":8192}]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sv, ts := newTestService(t, Options{Workers: 1})
			started := make(chan struct{}, 2)
			release := make(chan struct{})
			unpin := sync.OnceFunc(func() { close(release) })
			defer unpin()
			sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
				started <- struct{}{}
				<-release
				return make([]fvcache.MeasureResult, len(b.configs)), nil
			}
			type reply struct {
				status int
				out    api.MeasureResponse
			}
			post := func(body string) <-chan reply {
				ch := make(chan reply, 1)
				go func() {
					var r reply
					defer func() { ch <- r }()
					resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					r.status = resp.StatusCode
					if err := json.NewDecoder(resp.Body).Decode(&r.out); err != nil {
						t.Error(err)
					}
				}()
				return ch
			}

			firstCh := post(first)
			<-started // batch 1 is running
			probeCh := post(tc.body)
			deadline := time.Now().Add(5 * time.Second)
			for sv.ServerStats().Coalesced == 0 && len(sv.queue) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the request neither joined batch 1 nor queued a batch")
				}
				time.Sleep(time.Millisecond)
			}
			unpin()
			a, b := <-firstCh, <-probeCh
			if a.status != http.StatusOK || b.status != http.StatusOK {
				t.Fatalf("statuses %d, %d, want 200, 200", a.status, b.status)
			}
			if joined := b.out.Batch.TraceID == a.out.Batch.TraceID; joined != tc.joins {
				t.Errorf("request joined batch 1: %v, want %v (batch stanzas %+v, %+v)",
					joined, tc.joins, a.out.Batch, b.out.Batch)
			}
			wantBatches, wantRequests := uint64(2), 1
			if tc.joins {
				wantBatches, wantRequests = 1, 2
			}
			if st := sv.ServerStats(); st.Batches != wantBatches {
				t.Errorf("%d batch executions, want %d", st.Batches, wantBatches)
			}
			if a.out.Batch.Requests != wantRequests {
				t.Errorf("batch 1 served %d requests, want %d", a.out.Batch.Requests, wantRequests)
			}
		})
	}
}

// TestQueueOverflowRejects drives the worker pool to saturation with a
// stubbed slow executor and checks that an over-capacity request, a
// measure or an MRC miss, is rejected with 429 instead of queuing
// unboundedly.
func TestQueueOverflowRejects(t *testing.T) {
	sv, ts := newTestService(t, Options{
		Workers: 1, QueueDepth: 1,
	})
	started := make(chan string, 8)
	release := make(chan struct{})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		started <- b.workload
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return make([]fvcache.MeasureResult, len(b.configs)), nil
	}

	// Distinct workloads so the three requests cannot coalesce.
	post := func(wl string, status chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workload":%q}`, wl)))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}
	stA, stB, stC := make(chan int, 1), make(chan int, 1), make(chan int, 1)

	go post("goboard", stA)
	<-started // the lone worker is now pinned inside request A

	go post("ccomp", stB) // takes the single queue slot
	deadline := time.Now().Add(5 * time.Second)
	for len(sv.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	go post("strproc", stC) // queue full: must bounce with 429
	if got := <-stC; got != http.StatusTooManyRequests {
		t.Errorf("overflow request: status %d, want 429", got)
	}
	// An MRC miss needs a batch of its own, so it bounces too.
	if resp, data := postJSON(t, ts.URL+"/v1/mrc", `{"workload":"imgdct"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow MRC request: status %d, want 429: %s", resp.StatusCode, data)
	}
	if st := sv.ServerStats(); st.Rejected == 0 {
		t.Error("rejected counter did not move")
	}

	close(release)
	if got := <-stA; got != http.StatusOK {
		t.Errorf("request A: status %d, want 200", got)
	}
	if got := <-stB; got != http.StatusOK {
		t.Errorf("request B: status %d, want 200", got)
	}
}

// TestGracefulDrain verifies the SIGTERM path: a measure replay, an
// MRC pass and a sweep in flight when Shutdown begins all still
// complete with 200, Shutdown returns only after the last of them, and
// new requests are turned away with 503.
func TestGracefulDrain(t *testing.T) {
	sv := New(Options{Workers: 2})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	started := make(chan struct{}, 2)
	release, releaseMRC := make(chan struct{}), make(chan struct{})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		started <- struct{}{}
		gate := release
		if b.mrc != nil {
			gate = releaseMRC
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResults(b), nil
	}
	sweepStarted, releaseSweep := make(chan struct{}), make(chan struct{})
	sv.execSweep = func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error) {
		close(sweepStarted)
		select {
		case <-releaseSweep:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &fvcache.SweepResult{}, nil
	}

	post := func(path, body string) <-chan int {
		status := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}
	body := `{"workload":"goboard"}`
	inflight, inflightMRC := post("/v1/measure", body), post("/v1/mrc", body)
	inflightSweep := post("/v1/sweep", `{"artifacts":["tab1"]}`)
	<-started // all three requests are executing
	<-started
	<-sweepStarted

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- sv.Shutdown(ctx)
	}()

	// Draining: health reports it and new work is refused.
	deadline := time.Now().Add(5 * time.Second)
	for !sv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("measure during drain: status %d, want 503", resp.StatusCode)
	}
	// The refusal must tell clients it is worth retrying, and when.
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain carries no Retry-After header")
	}
	var e api.Error
	if err := json.Unmarshal(data, &e); err != nil || !e.Retryable {
		t.Errorf("503 body not marked retryable: %s", data)
	}
	// Liveness stays green through the drain (the process is healthy,
	// just leaving the pool); readiness goes red so routing stops.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200 (liveness)", hresp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", rresp.StatusCode)
	}

	close(release) // let the in-flight replay finish
	if got := <-inflight; got != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", got)
	}
	// The MRC pass is still running, so the drain must still wait.
	select {
	case err := <-drainDone:
		t.Errorf("Shutdown returned (%v) while an MRC pass was still running", err)
		drainDone <- nil
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseMRC)
	if got := <-inflightMRC; got != http.StatusOK {
		t.Errorf("in-flight MRC request during drain: status %d, want 200", got)
	}
	// The sweep is still running, so the drain must still wait.
	select {
	case err := <-drainDone:
		t.Errorf("Shutdown returned (%v) while a sweep was still running", err)
		drainDone <- nil
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseSweep)
	if got := <-inflightSweep; got != http.StatusOK {
		t.Errorf("in-flight sweep during drain: status %d, want 200", got)
	}
	if err := <-drainDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestBadRequests walks the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestService(t, Options{})
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"workload":`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"bad scale", `{"workload":"goboard","scale":"huge"}`, http.StatusBadRequest},
		{"fvc and victim", `{"workload":"goboard","config":{"fvc_entries":64,"victim_entries":4}}`, http.StatusBadRequest},
		{"oversized fvt", `{"workload":"goboard","config":{"fvc_entries":64,"fvc_bits":1,"frequent_values":[1,2,3]}}`, http.StatusBadRequest},
		{"bad geometry", `{"workload":"goboard","config":{"main_bytes":1000}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/measure", tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var e api.Error
			if err := json.Unmarshal(data, &e); err != nil || e.Message == "" {
				t.Errorf("error body not wire-shaped: %s", data)
			}
		})
	}
	// Method checks.
	resp, err := http.Get(ts.URL + "/v1/measure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/measure: status %d, want 405", resp.StatusCode)
	}
	// Unknown artifact in a sweep.
	if resp, _ := postJSON(t, ts.URL+"/v1/sweep", `{"artifacts":["fig999"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown artifact: status %d, want 400", resp.StatusCode)
	}
}

// TestListingAndMetricsEndpoints covers the read-only surface.
func TestListingAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestService(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wls struct {
		Workloads []fvcache.WorkloadInfo `json:"workloads"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wls)
	resp.Body.Close()
	if err != nil || len(wls.Workloads) < 12 {
		t.Fatalf("workloads listing: err=%v n=%d", err, len(wls.Workloads))
	}

	resp, err = http.Get(ts.URL + "/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var arts struct {
		Artifacts []fvcache.ArtifactInfo `json:"artifacts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&arts)
	resp.Body.Close()
	if err != nil || len(arts.Artifacts) == 0 {
		t.Fatalf("artifacts listing: err=%v n=%d", err, len(arts.Artifacts))
	}

	// One measurement, then the metrics page must carry the service
	// counters.
	if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: status %d (%s)", resp.StatusCode, data)
	}
	resp, err = http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"serve_requests_total", "serve_batches_total", "serve_batch_configs"} {
		if !bytes.Contains(page, []byte(metric)) {
			t.Errorf("metrics page missing %s", metric)
		}
	}
}

// TestSweepStreamsOverHTTP runs one artifact through POST /v1/sweep and
// checks the NDJSON stream shape.
func TestSweepStreamsOverHTTP(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"artifacts":["tab1"],"scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream carries %d lines, want artifact + summary:\n%s", len(lines), data)
	}
	var art struct {
		Artifact fvcache.ArtifactResult `json:"artifact"`
	}
	if err := json.Unmarshal(lines[0], &art); err != nil || art.Artifact.ID != "tab1" || art.Artifact.Status != "done" {
		t.Errorf("artifact line: err=%v %+v", err, art.Artifact)
	}
	if art.Artifact.Output == "" {
		t.Error("artifact line carries no output")
	}
	var sum struct {
		Summary *fvcache.SweepResult `json:"summary"`
	}
	if err := json.Unmarshal(lines[1], &sum); err != nil || sum.Summary == nil || sum.Summary.Done != 1 {
		t.Errorf("summary line: err=%v %+v", err, sum.Summary)
	}
}

// TestSweepWorkersClampedToPool checks that /v1/sweep hands the sweep
// at most the server's pool size in workers, and all of it when the
// request sets none.
func TestSweepWorkersClampedToPool(t *testing.T) {
	sv, _ := newTestService(t, Options{Workers: 2})
	var got int
	sv.execSweep = func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error) {
		got = req.Workers
		return &fvcache.SweepResult{}, nil
	}
	for body, want := range map[string]int{
		`{"workers":1000000}`: 2,
		`{"workers":-3}`:      2,
		`{}`:                  2,
		`{"workers":1}`:       1,
	} {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		if rec.Code != http.StatusOK || got != want {
			t.Errorf("%s: status %d, sweep got %d workers, want %d", body, rec.Code, got, want)
		}
	}
}

// TestDefaultConfigRequest checks the minimal useful body measures the
// default geometry.
func TestDefaultConfigRequest(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.MeasureResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Accesses == 0 {
		t.Fatalf("default measurement empty: %s", data)
	}
	if out.Scale != "test" {
		t.Errorf("default scale = %q, want test", out.Scale)
	}
	if out.Results[0].MissRate <= 0 || out.Results[0].MissRate >= 1 {
		t.Errorf("implausible miss rate %v", out.Results[0].MissRate)
	}
}
