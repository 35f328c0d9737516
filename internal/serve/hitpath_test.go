// Tests for the cache-hit fast path: the handlers probe the durable
// result cache before coalescing, so a hit never opens a batch (for a
// measure or an MRC request) or takes a queue slot, and a partial hit
// sends only its misses to a batch.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/fleet"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
)

// memCache opens a memory-only result cache.
func memCache(t *testing.T) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postHolding posts body while holding mu, a lock the hit path must
// never take: a request that reached for it times out after 5s. The
// lock is released before any failure is reported, so the server can
// still shut down.
func postHolding(t *testing.T, mu *sync.Mutex, url, body string) (*http.Response, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	resp, err := http.DefaultClient.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	mu.Unlock()
	if err != nil {
		t.Fatalf("no answer while the lock was held: %v", err)
	}
	return resp, data
}

// spanNames returns the sorted span names of the recorded trace id.
func spanNames(t *testing.T, base, id string) []string {
	t.Helper()
	for _, tr := range debugRequests(t, base, "") {
		if tr.ID != id {
			continue
		}
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		sort.Strings(names)
		return names
	}
	t.Fatalf("trace %s not in /debug/requests", id)
	return nil
}

// rawMeasure keeps results as raw bytes, so "bit-identical" compares
// the serialized numbers rather than a float round trip.
type rawMeasure struct {
	Results json.RawMessage `json:"results"`
	Batch   api.BatchInfo   `json:"batch"`
}

func decodeRaw(t *testing.T, label string, resp *http.Response, data []byte) rawMeasure {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", label, resp.StatusCode, data)
	}
	var out rawMeasure
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return out
}

// measureRaw posts a /v1/measure body that must succeed.
func measureRaw(t *testing.T, label, base, body string) rawMeasure {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/measure", body)
	return decodeRaw(t, label, resp, data)
}

// TestMeasureHitSkipsBatching: a cached key is answered at once, runs
// no batch, and its trace holds exactly parse → cache_probe → encode.
// The coalescing table's lock is held throughout, so a hit that reached
// for it would hang.
func TestMeasureHitSkipsBatching(t *testing.T) {
	cache := memCache(t)
	_, warm := newTestService(t, Options{ResultCache: cache})
	sv, ts := newTestService(t, Options{ResultCache: cache})

	body := `{"workload":"goboard","config":{"fvc_entries":128}}`
	cold := measureRaw(t, "warm-up", warm.URL, body)

	before := sv.ServerStats().Batches
	start := time.Now()
	resp, data := postHolding(t, &sv.mu, ts.URL+"/v1/measure", body)
	took := time.Since(start)
	hit := decodeRaw(t, "hit", resp, data)

	if took > 500*time.Millisecond {
		t.Errorf("hit took %s with the coalescing table locked", took)
	}
	if got := sv.ServerStats().Batches; got != before {
		t.Errorf("hit ran %d batches", got-before)
	}
	if !bytes.Equal(hit.Results, cold.Results) {
		t.Errorf("hit differs from the computed result:\nhit  %s\ncold %s", hit.Results, cold.Results)
	}
	if hit.Batch.CacheHits != 1 || hit.Batch.Configs != 1 || hit.Batch.Requests != 1 || hit.Batch.Coalesced {
		t.Errorf("hit batch stanza %+v", hit.Batch)
	}
	if !obs.Enabled {
		return
	}
	id := resp.Header.Get("X-Request-Id")
	if hit.Batch.TraceID != id {
		t.Errorf("hit trace_id %q, want the request's own %q", hit.Batch.TraceID, id)
	}
	if got, want := strings.Join(spanNames(t, ts.URL, id), ","), "cache_probe,encode,parse"; got != want {
		t.Errorf("hit trace spans %s, want %s", got, want)
	}
}

// TestPartialHitSplicesBitIdentical: a request mixing a warm config
// with a cold one (repeated) sends only the cold one to a batch, and
// the spliced answer is byte-identical to a cold server's.
func TestPartialHitSplicesBitIdentical(t *testing.T) {
	sv, ts := newTestService(t, Options{ResultCache: memCache(t)})
	_, ref := newTestService(t, Options{})

	measureRaw(t, "warm-up", ts.URL, `{"workload":"strproc","config":{"fvc_entries":64}}`)

	body := `{"workload":"strproc","configs":[{"main_bytes":8192},{"fvc_entries":64},{"main_bytes":8192}]}`
	before := sv.ServerStats().Batches
	resp, data := postJSON(t, ts.URL+"/v1/measure", body)
	got := decodeRaw(t, "partial hit", resp, data)
	want := measureRaw(t, "cold reference", ref.URL, body)

	if !bytes.Equal(got.Results, want.Results) {
		t.Errorf("partial hit differs from a cold server:\ngot  %s\nwant %s", got.Results, want.Results)
	}
	if got.Batch.Configs != 1 || got.Batch.CacheHits != 1 || got.Batch.Requests != 1 {
		t.Errorf("partial hit batch stanza %+v, want configs 1, cache_hits 1", got.Batch)
	}
	if n := sv.ServerStats().Batches - before; n != 1 {
		t.Errorf("partial hit ran %d batches, want 1", n)
	}
	if obs.Enabled && got.Batch.TraceID == resp.Header.Get("X-Request-Id") {
		t.Error("partial hit reports its own ID, not the batch's")
	}
}

// TestBreakerOpenStillServesHits: an open breaker sheds a key's misses
// only; a cached result is not an execution and still answers 200.
func TestBreakerOpenStillServesHits(t *testing.T) {
	sv, ts := newTestService(t, Options{
		ResultCache:      memCache(t),
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	warm := `{"workload":"goboard"}`
	measureRaw(t, "warm-up", ts.URL, warm)

	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		panic("poisoned workload")
	}
	if resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard","config":{"fvc_entries":64}}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking miss: status %d: %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, ts.URL+"/v1/measure", `{"workload":"goboard","config":{"fvc_entries":128}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("miss under open breaker: status %d, want 503: %s", resp.StatusCode, data)
	}
	if e := decodeEnvelope(t, "open breaker", data); e.Reason != "breaker_open" {
		t.Errorf("miss under open breaker: reason %q", e.Reason)
	}
	hit := measureRaw(t, "hit under open breaker", ts.URL, warm)
	if hit.Batch.CacheHits != 1 {
		t.Errorf("hit under open breaker: %+v", hit.Batch)
	}
}

// TestMRCHitSpawnsNoFlight: a cached curve set is answered without
// running the analysis and without touching the pending table, whose
// lock is held throughout.
func TestMRCHitSpawnsNoFlight(t *testing.T) {
	sv, ts := newTestService(t, Options{ResultCache: memCache(t)})
	var nExec atomic.Int32
	sv.exec = func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
		nExec.Add(1)
		rs := stubResults(b)
		sv.cache.Load().Put(mrcCacheKey(*b.mrc), rs)
		return rs, nil
	}
	body := `{"workload":"goboard","line_bytes":32,"max_size_bytes":32}`
	resp, cold := postJSON(t, ts.URL+"/v1/mrc", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	if n := nExec.Load(); n != 1 {
		t.Fatalf("cold request ran %d passes, want 1", n)
	}

	batches := sv.ServerStats().Batches
	resp, warm := postHolding(t, &sv.mu, ts.URL+"/v1/mrc", body)
	sv.mu.Lock()
	open := len(sv.pending)
	sv.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	if n := nExec.Load(); n != 1 {
		t.Errorf("hit ran the analysis (%d passes)", n)
	}
	if n := sv.ServerStats().Batches - batches; open != 0 || n != 0 {
		t.Errorf("hit left %d batches open and ran %d", open, n)
	}
	_, sum := mrcLines(t, warm)
	if !sum.CacheHit || sum.Requests != 1 || sum.Coalesced {
		t.Errorf("hit summary %+v", sum)
	}
	if !obs.Enabled {
		return
	}
	id := resp.Header.Get("X-Request-Id")
	if sum.TraceID != id {
		t.Errorf("hit trace_id %q, want the request's own %q", sum.TraceID, id)
	}
	if got, want := strings.Join(spanNames(t, ts.URL, id), ","), "cache_probe,encode,parse"; got != want {
		t.Errorf("hit trace spans %s, want %s", got, want)
	}
}

// TestFleetOwnerAnswersForwardedHit: a forwarded request re-enters the
// owner's handler, so a key the owner holds is answered from its cache
// without opening a batch there.
func TestFleetOwnerAnswersForwardedHit(t *testing.T) {
	nodes := startFleet(t, 3, fleet.Options{}, Options{})
	byURL := map[string]*fleetNode{}
	for _, n := range nodes {
		n.sv.SetResultCache(memCache(t))
		byURL[n.url] = n
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Find a config some node must forward: the first request through
	// node 0 executes on the owner and warms its cache.
	var (
		req   api.MeasureRequest
		first *api.MeasureResponse
		owner *fleetNode
	)
	for _, cfg := range fleetConfigPool() {
		cfg := cfg
		req = api.MeasureRequest{Workload: "goboard", Config: &cfg}
		resp, err := nodes[0].cli.Measure(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Batch.Node != nodes[0].url {
			first, owner = resp, byURL[resp.Batch.Node]
			break
		}
	}
	if owner == nil {
		t.Fatal("every pool config is owned by node 0")
	}
	if first.Batch.CacheHits != 0 {
		t.Fatalf("warm-up was already cached: %+v", first.Batch)
	}

	before := owner.sv.ServerStats().Batches
	got, err := nodes[0].cli.Measure(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.ForwardedBy != nodes[0].url || got.Batch.Node != owner.url {
		t.Errorf("hit not forwarded to the owner: node %q forwarded-by %q", got.Batch.Node, got.ForwardedBy)
	}
	if n := owner.sv.ServerStats().Batches - before; n != 0 {
		t.Errorf("owner ran %d batches for a forwarded hit", n)
	}
	if got.Batch.CacheHits != 1 || got.Batch.Requests != 1 || got.Batch.Coalesced {
		t.Errorf("forwarded hit batch stanza %+v", got.Batch)
	}
	gotJSON, _ := json.Marshal(got.Results)
	wantJSON, _ := json.Marshal(first.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("forwarded hit differs from the owner's computed result:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}
