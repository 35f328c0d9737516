// Tests for the fault-hardened serving path: per-request deadlines,
// the per-(workload, scale) circuit breaker, panic containment,
// readiness vs liveness, and the durable result cache behind
// /v1/measure.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/faultinject"
	"fvcache/internal/resultcache"
)

// TestDeadlineExceeded: a request whose deadline fires while its batch
// (a replay or an MRC pass) is still executing must get 504 with a
// retryable, machine-readable body, and the executor must have seen
// the deadline on its context, which ends once the batch's only
// member's deadline has passed.
func TestDeadlineExceeded(t *testing.T) {
	for _, path := range []string{"/v1/measure", "/v1/mrc"} {
		t.Run(path[len("/v1/"):], func(t *testing.T) {
			sv, ts := newTestService(t, Options{Workers: 1})
			sawDeadline := make(chan bool, 1)
			ended := make(chan struct{})
			sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
				_, ok := ctx.Deadline()
				sawDeadline <- ok
				<-ctx.Done() // simulate a pass that only stops at a segment boundary
				close(ended)
				return nil, ctx.Err()
			}

			resp, data := postJSON(t, ts.URL+path+"?deadline_ms=50", `{"workload":"goboard"}`)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
			}
			var e api.Error
			if err := json.Unmarshal(data, &e); err != nil || !e.Retryable || e.Reason != "deadline_exceeded" {
				t.Errorf("504 body not retryable/deadline_exceeded: %s", data)
			}
			if ok := <-sawDeadline; !ok {
				t.Error("executor context carried no deadline")
			}
			select {
			case <-ended:
			case <-time.After(5 * time.Second):
				t.Error("executor context still live 5s after its only member's deadline")
			}
		})
	}
}

// TestDeadlineDefault: the server default applies when the request
// names none, and the body's deadline_ms works like the query form.
func TestDeadlineDefault(t *testing.T) {
	sv, ts := newTestService(t, Options{
		Workers: 1, DefaultDeadline: 50 * time.Millisecond,
	})
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, _ := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("default deadline: status %d, want 504", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard","deadline_ms":40}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("body deadline_ms: status %d, want 504", resp.StatusCode)
	}
	// A malformed or negative deadline is the client's fault.
	for _, q := range []string{"?deadline_ms=abc", "?deadline_ms=-5"} {
		if resp, _ := postJSON(t, ts.URL+"/v1/measure"+q, `{"workload":"goboard"}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestBreakerShedsFailingKey: repeated executor panics on one
// (workload, scale) key must open its breaker — 503 + Retry-After +
// breaker_open — while a healthy key on the same server keeps serving.
// After the cooldown a probe is admitted and a healed executor closes
// the breaker again.
func TestBreakerShedsFailingKey(t *testing.T) {
	sv, ts := newTestService(t, Options{
		Workers:          2,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
	})
	healed := false
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		if b.workload == "goboard" && !healed {
			panic("poisoned workload")
		}
		return make([]fvcache.MeasureResult, len(b.configs)), nil
	}

	// Two panics burn the threshold. harness.Recover must contain each
	// one: the request fails with 500, the process survives.
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking exec %d: status %d, want 500: %s", i, resp.StatusCode, data)
		}
		var e api.Error
		if err := json.Unmarshal(data, &e); err != nil || e.Retryable {
			t.Errorf("panic 500 marked retryable: %s", data)
		}
	}

	// The key is now shed without reaching the executor.
	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open breaker response carries no Retry-After")
	}
	var e api.Error
	if err := json.Unmarshal(data, &e); err != nil || !e.Retryable || e.Reason != "breaker_open" {
		t.Errorf("breaker body not retryable/breaker_open: %s", data)
	}

	// A different workload is a different key: it must still serve.
	if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"ccomp"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("healthy key during open breaker: status %d: %s", resp.StatusCode, data)
	}

	// Heal the executor, wait out the cooldown: the half-open probe
	// succeeds and the key serves again.
	healed = true
	time.Sleep(150 * time.Millisecond)
	if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("probe after cooldown: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("closed breaker: status %d, want 200", resp.StatusCode)
	}
}

// TestBreakerHalfOpenRefails: a failing probe must re-open the breaker
// for another full cooldown instead of letting traffic through.
func TestBreakerHalfOpenRefails(t *testing.T) {
	b := newBreaker(1, 50*time.Millisecond)
	b.report("k", false) // opens
	if ok, _ := b.allow("k"); ok {
		t.Fatal("open breaker admitted a request")
	}
	time.Sleep(60 * time.Millisecond)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	// While the probe is in flight, everyone else keeps waiting.
	if ok, ra := b.allow("k"); ok || ra <= 0 {
		t.Fatalf("second caller during probe: ok=%v retryAfter=%v", ok, ra)
	}
	b.report("k", false) // probe fails: re-open
	if ok, _ := b.allow("k"); ok {
		t.Fatal("failed probe did not re-open the breaker")
	}
	time.Sleep(60 * time.Millisecond)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("no probe after second cooldown")
	}
	b.report("k", true) // probe succeeds: closed
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestReadinessGate: StartUnready keeps /readyz at 503 (while /healthz
// and the serving path stay up) until SetReady flips it — the boot
// recovery-scan window in fvcached.
func TestReadinessGate(t *testing.T) {
	sv, ts := newTestService(t, Options{StartUnready: true})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz before SetReady: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz before SetReady: %d, want 200", got)
	}
	sv.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz after SetReady: %d, want 200", got)
	}
}

// TestWarmRepeatBitIdentical is the acceptance gate for the durable
// result cache: for every registered workload, a repeat /v1/measure
// must be answered from the cache (batch.cache_hits == configs) with
// results byte-identical to the cold computation.
func TestWarmRepeatBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every workload")
	}
	cache, err := resultcache.Open(resultcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Options{ResultCache: cache})

	wls := fvcache.Workloads()
	if len(wls) < 18 {
		t.Fatalf("workload registry holds %d entries, want >= 18", len(wls))
	}
	// rawResp keeps Results as raw bytes so "bit-identical" means the
	// serialized numbers, not a float round trip.
	type rawResp struct {
		Results json.RawMessage `json:"results"`
		Batch   api.BatchInfo   `json:"batch"`
	}
	for _, wl := range wls {
		body := fmt.Sprintf(`{"workload":%q,"config":{"fvc_entries":64}}`, wl.Name)
		resp, cold := postJSON(t, ts.URL+"/v1/measure", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: status %d: %s", wl.Name, resp.StatusCode, cold)
		}
		resp, warm := postJSON(t, ts.URL+"/v1/measure", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s warm: status %d: %s", wl.Name, resp.StatusCode, warm)
		}
		var c, w rawResp
		if err := json.Unmarshal(cold, &c); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(warm, &w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Results, w.Results) {
			t.Errorf("%s: warm results differ from cold:\ncold %s\nwarm %s", wl.Name, c.Results, w.Results)
		}
		if w.Batch.CacheHits != w.Batch.Configs {
			t.Errorf("%s: warm repeat hit %d/%d configs", wl.Name, w.Batch.CacheHits, w.Batch.Configs)
		}
		if c.Batch.CacheHits != 0 {
			t.Errorf("%s: cold request reported %d cache hits", wl.Name, c.Batch.CacheHits)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache counters did not move: %+v", st)
	}
}

// TestCacheDegradedStillServes: a result cache whose disk tier keeps
// failing (ENOSPC on every promotion) must degrade to memory-only and
// never take the serving path down — compute-only, not outage.
func TestCacheDegradedStillServes(t *testing.T) {
	in := faultinject.New(11)
	ffs := in.WrapFS(resultcache.OSFS)
	ffs.Arm(faultinject.FSENOSPC, 100)
	cache, err := resultcache.Open(resultcache.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Options{ResultCache: cache})

	// Enough repeats to cross the admission threshold and attempt the
	// (failing) durable write; every request must still succeed.
	for i := 0; i < 4; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with failing disk tier: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if st := cache.Stats(); !st.Degraded || st.Degradations == 0 {
		t.Errorf("disk tier never degraded despite ENOSPC: %+v", st)
	}
}
