// Command serveload is the serving-path load generator behind
// BENCH_serve.json: it replays a seeded production-style request mix
// against a spawned fvcached and reports where the service's time
// went. All traffic flows through the public fvcache/client SDK — the
// same code path external callers and the fleet's own node-to-node
// forwarding use — with retries disabled, because a load generator
// must observe rejections rather than paper over them.
//
//	serveload -o BENCH_serve.json            # spawn fvcached, run, report
//	serveload -addr http://127.0.0.1:8080    # drive an already-running server
//	serveload -verify BENCH_serve.json       # validate a committed artifact
//	serveload -cluster 3                     # also bench a 3-node fleet lane
//
// The mix is deterministic in structure (request sequence, workload
// choice, config choice) for a given -seed: workloads are drawn from a
// Zipf distribution over the full registered set, configurations from
// a small reused pool (config-fingerprint reuse is what exercises
// request coalescing and both result-cache tiers), and 15% of
// requests take the analytic /v1/mrc path. The run moves through six
// phases:
//
//	warmup    closed-loop, results discarded; populates the result cache
//	hit probe one caller re-asks keys it just computed on the quiet
//	          server: the unloaded cache-hit latency (-verify: p50 < 1ms)
//	closed    N workers back to back — the cache-hit steady state
//	open      fixed arrival rate, latency under unsynchronized load
//	burst     rounds of identical concurrent requests for a config no
//	          earlier request asked — coalescing (hits never coalesce)
//	deadline  deadline_ms shorter than one replay on a config the mix
//	          never caches — 504s, and the circuit breaker they
//	          open (503s). Runs LAST so breaker fallout cannot pollute
//	          the steady-state phases.
//
// With -cluster n (default 3, 0 disables) the run then boots an n-node
// consistent-hash fleet (static -peers membership), replays the warm
// mix round-robin across every node, and emits a "fleet" lane in the
// artifact: fleet hit ratio, forward ratio, latency quantiles,
// per-stage attribution including the forward span, and the
// exactly-one-owner invariant (multi_owner_keys).
//
// The artifact records exact (sorted-sample) p50/p90/p99/p999 per
// endpoint, hit/coalesce ratios, 429/503/504 rates, per-stage time
// attribution aggregated from the server's /debug/requests span data,
// and the cache-hit fast path (measure-hit p50, and how many hit traces
// waited on the batch queue). -verify re-reads an
// artifact and checks every structural invariant (schema, quantile
// ordering, ratio ranges, stage coverage, hit-path and fleet-lane
// gates), plus the telemetry snapshot written next to it on the
// spawned server's SIGTERM drain; make check uses it to keep the
// committed artifact honest.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/client"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
)

// Schema identifies the artifact format for forward compatibility.
const Schema = "fvcache-bench-serve/v1"

type endpointStats struct {
	Requests int   `json:"requests"`
	P50US    int64 `json:"p50_us"`
	P90US    int64 `json:"p90_us"`
	P99US    int64 `json:"p99_us"`
	P999US   int64 `json:"p999_us"`
	MaxUS    int64 `json:"max_us"`
}

// stageStat aggregates one span name across every trace the server's
// flight recorder retained — the per-stage time attribution.
type stageStat struct {
	Count   int     `json:"count"`
	MeanUS  float64 `json:"mean_us"`
	TotalUS int64   `json:"total_us"`
}

// hitPathReport pins the cache-hit fast path: the server answers a hit
// in its handler, so a hit never waits on the batch queue.
type hitPathReport struct {
	// MeasureHits and MeasureP50US: the exact p50 of the hit probe —
	// one caller re-asking /v1/measure keys it has just computed, on an
	// otherwise idle server, so the number is the hit path's own cost
	// rather than the closed loop's queueing. Absent on the fleet lane.
	MeasureHits  int   `json:"measure_hits,omitempty"`
	MeasureP50US int64 `json:"measure_p50_us,omitempty"`
	// Traces counts hit-outcome traces in the flight recorder;
	// WaitSpans how many of them carry a queue_wait span (must be
	// zero).
	Traces    int `json:"traces"`
	WaitSpans int `json:"wait_spans"`
}

// maxHitP50US is the -verify bound on the measure-hit p50.
const maxHitP50US = 1000

// hitProbeRequests is the size of the hit probe's measured pass.
const hitProbeRequests = 200

// fleetReport is the artifact's fleet lane: the same serving metrics
// measured against an n-node consistent-hash fleet driven uniformly
// across every node, plus the fleet-specific invariants.
type fleetReport struct {
	Nodes    int `json:"nodes"`
	Requests int `json:"requests"`

	// HitRatio / CoalesceRatio as in the single-node lane. A healthy
	// fleet keeps owner-cache affinity, so hit_ratio must be at least
	// the single-node lane's.
	HitRatio      float64 `json:"hit_ratio"`
	CoalesceRatio float64 `json:"coalesce_ratio"`

	// ForwardRatio is the fraction of requests answered through a
	// proxy hop (X-Fvcache-Forwarded-By present). Uniform arrivals on
	// n nodes put the owner elsewhere (n-1)/n of the time.
	ForwardRatio float64 `json:"forward_ratio"`

	// MultiOwnerKeys counts (endpoint, workload, config) keys whose
	// batches executed on more than one node during the recorded run —
	// zero when ownership is stable and no fallback fired.
	MultiOwnerKeys int `json:"multi_owner_keys"`

	Endpoints map[string]endpointStats `json:"endpoints"`
	Outcomes  map[string]int           `json:"outcomes"`
	// StagesUS merges /debug/requests span attribution across every
	// node; the forward stage is the proxy hop itself.
	StagesUS map[string]stageStat `json:"stages_us"`
	// HitPath is the hit fast path across every node (a forwarded hit
	// is a hit on its owner).
	HitPath hitPathReport `json:"hit_path"`

	// Counters sums each node's /debug/fleet ownership counters.
	Counters fleetCounters `json:"counters"`
}

// fleetCounters mirrors the counter block of /debug/fleet.
type fleetCounters struct {
	Forwarded         uint64 `json:"forwarded"`
	ForwardFallback   uint64 `json:"forward_fallback"`
	ReceivedForwarded uint64 `json:"received_forwarded"`
	LocalOwned        uint64 `json:"local_owned"`
	MixedLocal        uint64 `json:"mixed_local"`
}

type report struct {
	Schema     string `json:"schema"`
	Seed       int64  `json:"seed"`
	Requests   int    `json:"requests"`
	DurationMS int64  `json:"duration_ms"`

	// Endpoints holds exact latency quantiles computed from the full
	// sorted sample set, per endpoint (measure, mrc).
	Endpoints map[string]endpointStats `json:"endpoints"`

	// Outcomes counts requests by class: hit / coalesced / executed /
	// 429 / 503 / 504 / error.
	Outcomes map[string]int `json:"outcomes"`

	// HitRatio is the fraction of successful (2xx) warm-mix requests
	// answered from the cache; the burst phase asks cold keys on
	// purpose and is left out. CoalesceRatio is a fraction of all
	// successful requests, and the rates of all requests.
	HitRatio      float64 `json:"hit_ratio"`
	CoalesceRatio float64 `json:"coalesce_ratio"`
	Rate429       float64 `json:"rate_429"`
	Rate503       float64 `json:"rate_503"`
	Rate504       float64 `json:"rate_504"`

	// StagesUS attributes time to serving stages (parse, queue_wait,
	// cache_probe, replay, encode, ...) from the span trees
	// at /debug/requests.
	StagesUS map[string]stageStat `json:"stages_us"`

	// HitPath is the cache-hit fast path.
	HitPath hitPathReport `json:"hit_path"`

	// Fleet is the n-node fleet lane (-cluster), absent when disabled.
	Fleet *fleetReport `json:"fleet,omitempty"`
}

// sample is one completed request.
type sample struct {
	endpoint string
	us       int64
	outcome  string
	node     string // executing fleet node (batch/summary .Node)
	fwd      bool   // answered through a proxy hop
	key      string // ownership key: endpoint|workload|config identity
	cold     bool   // sent in the burst phase, whose keys are cold by design
}

// recorder collects samples from concurrent workers.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	discard bool
	cold    bool
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	if !r.discard {
		s.cold = r.cold
		r.samples = append(r.samples, s)
	}
	r.mu.Unlock()
}

func (r *recorder) setCold(c bool) {
	r.mu.Lock()
	r.cold = c
	r.mu.Unlock()
}

func (r *recorder) setDiscard(d bool) {
	r.mu.Lock()
	r.discard = d
	r.mu.Unlock()
}

// configPool is the reused configuration set. Reuse is the point: the
// same fingerprints recur so the durable result cache and batch
// coalescing both see repeats, like production clients
// re-asking the popular questions.
var configPool = []api.Config{
	{},
	{FVCEntries: 256},
	{FVCEntries: 1024},
	{Assoc: 2},
	{VictimEntries: 8},
	{MainBytes: 8192, FVCEntries: 256},
}

// gen drives requests against one server — or, with several clients,
// round-robin across a fleet's nodes.
type gen struct {
	clients []*client.Client
	next    atomic.Uint64
	rec     *recorder
	names   []string // workload names, Zipf-ranked
}

func newGen(bases ...string) (*gen, error) {
	wls := fvcache.Workloads()
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name
	}
	g := &gen{rec: &recorder{}, names: names}
	for _, base := range bases {
		cli, err := client.New(base, client.Options{
			NoRetry:    true,
			HTTPClient: &http.Client{Timeout: 2 * time.Minute},
		})
		if err != nil {
			return nil, err
		}
		g.clients = append(g.clients, cli)
	}
	return g, nil
}

// pick returns the round-robin next client, so fleet arrivals are
// uniform across nodes.
func (g *gen) pickClient() *client.Client {
	return g.clients[int(g.next.Add(1)-1)%len(g.clients)]
}

func mrcRequest(wl string) api.MRCRequest {
	return api.MRCRequest{Workload: wl, Scale: "test", MaxSizeBytes: 65536}
}

// errOutcome maps an SDK error to an outcome class.
func errOutcome(err error) string {
	var ae *api.Error
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests:
			return "429"
		case http.StatusServiceUnavailable:
			return "503"
		case http.StatusGatewayTimeout:
			return "504"
		}
	}
	return "error"
}

// oneMeasure issues a single measure request and records its sample.
func (g *gen) oneMeasure(req api.MeasureRequest) { g.rec.add(g.measure(req)) }

// measure issues a single measure request and classifies it.
func (g *gen) measure(req api.MeasureRequest) sample {
	key := "measure|" + req.Workload
	if req.Config != nil {
		key += "|" + req.Config.Normalized().Fingerprint()
	}
	start := time.Now()
	resp, err := g.pickClient().Measure(context.Background(), req)
	us := time.Since(start).Microseconds()
	if err != nil {
		return sample{endpoint: "measure", us: us, outcome: errOutcome(err), key: key}
	}
	// A request answered in full from the cache counts a hit for every
	// config it sent (one result each); one with misses counts only its
	// own hits.
	outcome := "executed"
	switch {
	case resp.Batch.CacheHits == len(resp.Results):
		outcome = "hit"
	case resp.Batch.Coalesced:
		outcome = "coalesced"
	}
	return sample{
		endpoint: "measure", us: us, outcome: outcome,
		node: resp.Batch.Node, fwd: resp.ForwardedBy != "", key: key,
	}
}

// oneMRC issues a single streamed MRC request and records its sample.
func (g *gen) oneMRC(req api.MRCRequest) {
	key := fmt.Sprintf("mrc|%s|%d|%d", req.Workload, req.LineBytes, req.MaxSizeBytes)
	start := time.Now()
	sum, err := g.pickClient().MRC(context.Background(), req, nil)
	us := time.Since(start).Microseconds()
	if err != nil {
		g.rec.add(sample{endpoint: "mrc", us: us, outcome: errOutcome(err), key: key})
		return
	}
	outcome := "executed"
	switch {
	case sum.CacheHit:
		outcome = "hit"
	case sum.Coalesced:
		outcome = "coalesced"
	}
	g.rec.add(sample{
		endpoint: "mrc", us: us, outcome: outcome,
		node: sum.Node, fwd: sum.ForwardedBy != "", key: key,
	})
}

// draw picks the next request from the deterministic stream and
// returns the closure that sends it, so callers may issue it on
// another goroutine without sharing the rng.
func (g *gen) draw(rng *rand.Rand, zipf *rand.Zipf) func() {
	wl := g.names[int(zipf.Uint64())%len(g.names)]
	if rng.Intn(100) < 15 {
		return func() { g.oneMRC(mrcRequest(wl)) }
	}
	// Favor the head of the config pool so fingerprints repeat.
	ci := rng.Intn(len(configPool) * 2)
	if ci >= len(configPool) {
		ci = 0
	}
	cfg := configPool[ci]
	return func() {
		g.oneMeasure(api.MeasureRequest{Workload: wl, Scale: "test", Config: &cfg})
	}
}

// issue draws the next request and sends it inline.
func (g *gen) issue(rng *rand.Rand, zipf *rand.Zipf) { g.draw(rng, zipf)() }

// closedLoop runs workers back to back until d elapses.
func (g *gen) closedLoop(workers int, d time.Duration, seed int64) {
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(g.names)-1))
			for time.Now().Before(stop) {
				g.issue(rng, zipf)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop fires rate requests/second regardless of completion times.
func (g *gen) openLoop(rate int, d time.Duration, seed int64) {
	if rate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1e3779b97f4a7c15))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(g.names)-1))
	tick := time.NewTicker(time.Second / time.Duration(rate))
	defer tick.Stop()
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for time.Now().Before(stop) {
		<-tick.C
		send := g.draw(rng, zipf) // drawn serially; sent concurrently
		wg.Add(1)
		go func() { defer wg.Done(); send() }()
	}
	wg.Wait()
}

// burst fires rounds of identical concurrent requests: members that
// arrive while the first one's batch is queued or replaying join it,
// so the fused-batch path gets a directed workout. Each round asks a config no earlier request did —
// the server answers hits before coalescing, so only misses can fuse.
// Across a fleet the members spread over all nodes and still coalesce
// at the single owner.
func (g *gen) burst(rounds, width int, seed int64) {
	g.rec.setCold(true)
	defer g.rec.setCold(false)
	rng := rand.New(rand.NewSource(seed + 7))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(g.names)-1))
	for r := 0; r < rounds; r++ {
		wl := g.names[int(zipf.Uint64())%len(g.names)]
		cfg := api.Config{MainBytes: 4096, VictimEntries: 3 + r} // outside configPool
		req := api.MeasureRequest{Workload: wl, Scale: "test", Config: &cfg}
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); g.oneMeasure(req) }()
		}
		wg.Wait()
		time.Sleep(20 * time.Millisecond)
	}
}

// deadlines issues requests whose 1ms deadline expires during their
// replay, for a config the result cache never holds: every one times
// out (504), and the failures open the per-workload circuit breaker
// (503). Must run last.
func (g *gen) deadlines(d time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed + 13))
	wl := g.names[rng.Intn(len(g.names))]
	cfg := api.Config{MainBytes: 32768, Assoc: 4} // outside configPool
	stop := time.Now().Add(d)
	for time.Now().Before(stop) {
		g.oneMeasure(api.MeasureRequest{Workload: wl, Scale: "test", Config: &cfg, DeadlineMS: 1})
		time.Sleep(5 * time.Millisecond)
	}
}

// warmFleet deterministically covers every (workload, config) pair and
// every workload's MRC once, so the recorded fleet phase measures the
// owner-cache steady state, not cold-start misses.
func (g *gen) warmFleet() {
	var wg sync.WaitGroup
	for _, wl := range g.names {
		wl := wl
		for _, cfg := range configPool {
			cfg := cfg
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.oneMeasure(api.MeasureRequest{Workload: wl, Scale: "test", Config: &cfg})
			}()
		}
		wg.Add(1)
		go func() { defer wg.Done(); g.oneMRC(mrcRequest(wl)) }()
	}
	wg.Wait()
}

// scrapeStages aggregates span durations by name from one server's
// flight recorder into agg, and counts its hit traces (and those that
// waited on a batch) into hp.
func scrapeStages(base string, agg map[string]stageStat, hp *hitPathReport) error {
	resp, err := http.Get(base + "/debug/requests?n=100000")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Traces []obs.RequestTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	for _, tr := range out.Traces {
		waited := false
		for _, sp := range tr.Spans {
			s := agg[sp.Name]
			s.Count++
			s.TotalUS += sp.DurationUS
			agg[sp.Name] = s
			waited = waited || sp.Name == "queue_wait"
		}
		if tr.Outcome == "hit" {
			hp.Traces++
			if waited {
				hp.WaitSpans++
			}
		}
	}
	return nil
}

// hitProbe measures the unloaded cache-hit path into hp: one caller
// asks every workload's default config once (computing whatever the
// warmup missed), then re-asks them round-robin, timing only the
// answers that come back as full hits. Its samples stay out of the
// recorded mix.
func (g *gen) hitProbe(hp *hitPathReport) {
	req := func(i int) api.MeasureRequest {
		cfg := configPool[0]
		return api.MeasureRequest{Workload: g.names[i%len(g.names)], Scale: "test", Config: &cfg}
	}
	for i := range g.names {
		g.measure(req(i))
	}
	var lat []int64
	for i := 0; i < hitProbeRequests; i++ {
		if s := g.measure(req(i)); s.outcome == "hit" {
			lat = append(lat, s.us)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	hp.MeasureHits = len(lat)
	hp.MeasureP50US = quantileUS(lat, 0.50)
}

func finishStages(agg map[string]stageStat) map[string]stageStat {
	for name, s := range agg {
		if s.Count > 0 {
			s.MeanUS = float64(s.TotalUS) / float64(s.Count)
		}
		agg[name] = s
	}
	return agg
}

// scrapeFleetCounters sums one node's /debug/fleet counters into agg.
func scrapeFleetCounters(base string, agg *fleetCounters) error {
	resp, err := http.Get(base + "/debug/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Counters fleetCounters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	agg.Forwarded += out.Counters.Forwarded
	agg.ForwardFallback += out.Counters.ForwardFallback
	agg.ReceivedForwarded += out.Counters.ReceivedForwarded
	agg.LocalOwned += out.Counters.LocalOwned
	agg.MixedLocal += out.Counters.MixedLocal
	return nil
}

// quantileUS returns the exact q-quantile of sorted microsecond
// latencies (nearest-rank).
func quantileUS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tally computes the per-endpoint quantiles and outcome counts shared
// by both lanes; returns (endpoints, outcomes, hit ratio, coalesce
// ratio).
func tally(samples []sample) (map[string]endpointStats, map[string]int, float64, float64) {
	endpoints := map[string]endpointStats{}
	outcomes := map[string]int{}
	byEndpoint := map[string][]int64{}
	ok, coalesced, warmOK, warmHit := 0, 0, 0, 0
	for _, s := range samples {
		outcomes[s.outcome]++
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s.us)
		switch s.outcome {
		case "hit", "coalesced", "executed":
		default:
			continue
		}
		ok++
		if s.outcome == "coalesced" {
			coalesced++
		}
		if !s.cold {
			warmOK++
			if s.outcome == "hit" {
				warmHit++
			}
		}
	}
	for ep, lat := range byEndpoint {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		endpoints[ep] = endpointStats{
			Requests: len(lat),
			P50US:    quantileUS(lat, 0.50),
			P90US:    quantileUS(lat, 0.90),
			P99US:    quantileUS(lat, 0.99),
			P999US:   quantileUS(lat, 0.999),
			MaxUS:    lat[len(lat)-1],
		}
	}
	var hitRatio, coalesceRatio float64
	if warmOK > 0 {
		hitRatio = float64(warmHit) / float64(warmOK)
	}
	if ok > 0 {
		coalesceRatio = float64(coalesced) / float64(ok)
	}
	return endpoints, outcomes, hitRatio, coalesceRatio
}

// build assembles the single-node lane from the recorded samples.
func (g *gen) build(seed int64, elapsed time.Duration) report {
	g.rec.mu.Lock()
	samples := g.rec.samples
	g.rec.mu.Unlock()
	endpoints, outcomes, hitRatio, coalesceRatio := tally(samples)
	rep := report{
		Schema:        Schema,
		Seed:          seed,
		Requests:      len(samples),
		DurationMS:    elapsed.Milliseconds(),
		Endpoints:     endpoints,
		Outcomes:      outcomes,
		HitRatio:      hitRatio,
		CoalesceRatio: coalesceRatio,
	}
	if rep.Requests > 0 {
		n := float64(rep.Requests)
		rep.Rate429 = float64(outcomes["429"]) / n
		rep.Rate503 = float64(outcomes["503"]) / n
		rep.Rate504 = float64(outcomes["504"]) / n
	}
	return rep
}

// buildFleet assembles the fleet lane.
func (g *gen) buildFleet() *fleetReport {
	g.rec.mu.Lock()
	samples := g.rec.samples
	g.rec.mu.Unlock()
	endpoints, outcomes, hitRatio, coalesceRatio := tally(samples)
	fr := &fleetReport{
		Nodes:         len(g.clients),
		Requests:      len(samples),
		Endpoints:     endpoints,
		Outcomes:      outcomes,
		HitRatio:      hitRatio,
		CoalesceRatio: coalesceRatio,
	}
	forwarded := 0
	ownersByKey := map[string]map[string]bool{}
	for _, s := range samples {
		if s.fwd {
			forwarded++
		}
		if s.node != "" {
			set := ownersByKey[s.key]
			if set == nil {
				set = map[string]bool{}
				ownersByKey[s.key] = set
			}
			set[s.node] = true
		}
	}
	for _, set := range ownersByKey {
		if len(set) > 1 {
			fr.MultiOwnerKeys++
		}
	}
	if fr.Requests > 0 {
		fr.ForwardRatio = float64(forwarded) / float64(fr.Requests)
	}
	return fr
}

// child is a spawned fvcached process.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// buildBinary compiles fvcached once for every spawn of the run.
func buildBinary(workDir string) (string, error) {
	bin := filepath.Join(workDir, "fvcached")
	if out, err := exec.Command("go", "build", "-o", bin, "fvcache/cmd/fvcached").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building fvcached: %v\n%s", err, out)
	}
	return bin, nil
}

// spawn boots fvcached with the given arguments, waiting until /readyz
// reports ready.
func spawn(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan error, 1)}
	go func() { c.exited <- cmd.Wait() }()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		return nil, fmt.Errorf("fvcached produced no startup line: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		return nil, fmt.Errorf("startup line %q carries no address", line)
	}
	c.base = "http://" + strings.TrimSpace(line[i+len(marker):])
	go func() {
		for sc.Scan() {
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	return nil, fmt.Errorf("fvcached never became ready at %s", c.base)
}

// stop drains the child with SIGTERM (triggering its telemetry
// export) and waits for a clean exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-c.exited:
		return err
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		return fmt.Errorf("fvcached did not exit after SIGTERM")
	}
}

// spawnFleet reserves n ports, then boots n fvcached processes whose
// -peers lists form one static consistent-hash membership.
func spawnFleet(bin, workDir string, n, ring int) ([]*child, error) {
	addrs := make([]string, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}
	peers := strings.Join(urls, ",")
	children := make([]*child, 0, n)
	for i := 0; i < n; i++ {
		c, err := spawn(bin,
			"-addr", addrs[i],
			"-peers", peers,
			"-cache-dir", filepath.Join(workDir, fmt.Sprintf("fleet-cache-%d", i)),
			"-trace-ring", fmt.Sprint(ring),
			"-telemetry-out", filepath.Join(workDir, fmt.Sprintf("fleet-telemetry-%d.json", i)),
		)
		if err != nil {
			for _, prev := range children {
				prev.cmd.Process.Kill()
			}
			return nil, fmt.Errorf("fleet node %d: %w", i, err)
		}
		children = append(children, c)
	}
	return children, nil
}

// runFleetLane boots the fleet, replays the warm mix uniformly across
// its nodes and assembles the fleet lane.
func runFleetLane(bin, workDir string, n int, seed int64, workers int, closed time.Duration, bursts, width, ring int) (*fleetReport, error) {
	children, err := spawnFleet(bin, workDir, n, ring)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range children {
			c.stop()
		}
	}()
	bases := make([]string, len(children))
	for i, c := range children {
		bases[i] = c.base
	}
	fmt.Printf("serveload: fleet of %d up (%s)\n", n, strings.Join(bases, ", "))

	g, err := newGen(bases...)
	if err != nil {
		return nil, err
	}
	g.rec.setDiscard(true)
	fmt.Println("serveload: fleet warmup (full key coverage)...")
	g.warmFleet()
	g.rec.setDiscard(false)

	fmt.Printf("serveload: fleet closed loop, %d workers for %s...\n", workers, closed)
	g.closedLoop(workers, closed, seed+1000)
	fmt.Printf("serveload: fleet %d burst rounds of %d...\n", bursts, width)
	g.burst(bursts, width, seed+1000)

	fr := g.buildFleet()
	stages := map[string]stageStat{}
	var counters fleetCounters
	for _, base := range bases {
		if err := scrapeStages(base, stages, &fr.HitPath); err != nil {
			return nil, fmt.Errorf("scraping %s/debug/requests: %w", base, err)
		}
		if err := scrapeFleetCounters(base, &counters); err != nil {
			return nil, fmt.Errorf("scraping %s/debug/fleet: %w", base, err)
		}
	}
	fr.StagesUS = finishStages(stages)
	fr.Counters = counters
	return fr, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out      = flag.String("o", "BENCH_serve.json", "artifact output path")
		addr     = flag.String("addr", "", "base URL of a running fvcached (empty = spawn one)")
		bin      = flag.String("fvcached", "", "fvcached binary to spawn (empty = go build it)")
		seed     = flag.Int64("seed", 1, "request-mix seed")
		workers  = flag.Int("load-workers", 8, "closed-loop worker count")
		warmup   = flag.Duration("warmup", 2*time.Second, "warmup phase (results discarded)")
		closed   = flag.Duration("closed", 3*time.Second, "closed-loop phase duration")
		open     = flag.Duration("open", 3*time.Second, "open-loop phase duration")
		rate     = flag.Int("rate", 150, "open-loop arrival rate (requests/second)")
		bursts   = flag.Int("burst-rounds", 6, "burst rounds")
		width    = flag.Int("burst", 24, "concurrent requests per burst round")
		deadline = flag.Duration("deadline-phase", 1*time.Second, "deadline/breaker phase duration (0 disables)")
		ring     = flag.Int("trace-ring", 8192, "flight-recorder size for the spawned server")
		cluster  = flag.Int("cluster", 3, "fleet lane node count (0 disables; requires spawning, not -addr)")
		verify   = flag.Bool("verify", false, "validate an existing artifact instead of generating one")
	)
	flag.Parse()

	if *verify {
		path := *out
		if flag.NArg() > 0 {
			path = flag.Arg(0)
		}
		if err := verifyArtifact(path); err != nil {
			fmt.Fprintln(os.Stderr, "serveload: verify:", err)
			return harness.ExitFailure
		}
		fmt.Printf("serveload: %s verified\n", path)
		return harness.ExitOK
	}

	if *cluster == 1 {
		fmt.Fprintln(os.Stderr, "serveload: -cluster needs at least 2 nodes (0 disables)")
		return harness.ExitUsage
	}

	base := *addr
	var srv *child
	var workDir, builtBin string
	telemetryOut := filepath.Join(filepath.Dir(*out), "telemetry_serve.json")
	needSpawn := base == "" || *cluster > 0
	if needSpawn {
		var err error
		workDir, err = os.MkdirTemp("", "serveload")
		if err != nil {
			fmt.Fprintln(os.Stderr, "serveload:", err)
			return harness.ExitFailure
		}
		defer os.RemoveAll(workDir)
		builtBin = *bin
		if builtBin == "" {
			if builtBin, err = buildBinary(workDir); err != nil {
				fmt.Fprintln(os.Stderr, "serveload:", err)
				return harness.ExitFailure
			}
		}
	}
	if base == "" {
		var err error
		srv, err = spawn(builtBin,
			"-addr", "127.0.0.1:0",
			"-cache-dir", filepath.Join(workDir, "cache"),
			"-trace-ring", fmt.Sprint(*ring),
			"-telemetry-out", telemetryOut,
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serveload:", err)
			return harness.ExitFailure
		}
		base = srv.base
		fmt.Printf("serveload: fvcached up at %s\n", base)
	}

	g, err := newGen(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		return harness.ExitFailure
	}
	start := time.Now()

	g.rec.setDiscard(true)
	fmt.Printf("serveload: warmup %s...\n", *warmup)
	g.closedLoop(2, *warmup, *seed+100)
	g.rec.setDiscard(false)
	var hitPath hitPathReport
	fmt.Printf("serveload: hit probe, %d requests...\n", hitProbeRequests)
	g.hitProbe(&hitPath)

	fmt.Printf("serveload: closed loop, %d workers for %s...\n", *workers, *closed)
	g.closedLoop(*workers, *closed, *seed)
	fmt.Printf("serveload: open loop, %d req/s for %s...\n", *rate, *open)
	g.openLoop(*rate, *open, *seed)
	fmt.Printf("serveload: %d burst rounds of %d...\n", *bursts, *width)
	g.burst(*bursts, *width, *seed)
	if *deadline > 0 {
		fmt.Printf("serveload: deadline phase for %s...\n", *deadline)
		g.deadlines(*deadline, *seed)
	}
	elapsed := time.Since(start)

	rep := g.build(*seed, elapsed)
	rep.HitPath = hitPath
	stages := map[string]stageStat{}
	if err := scrapeStages(base, stages, &rep.HitPath); err != nil {
		fmt.Fprintln(os.Stderr, "serveload: scraping /debug/requests:", err)
		return harness.ExitFailure
	}
	rep.StagesUS = finishStages(stages)

	if srv != nil {
		if err := srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "serveload: stopping fvcached:", err)
			return harness.ExitFailure
		}
	}

	if *cluster > 0 {
		fr, err := runFleetLane(builtBin, workDir, *cluster, *seed, *workers, *closed, *bursts, *width, *ring)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serveload: fleet lane:", err)
			return harness.ExitFailure
		}
		rep.Fleet = fr
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		return harness.ExitFailure
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		return harness.ExitFailure
	}
	fmt.Printf("serveload: %d requests in %s -> %s\n", rep.Requests, elapsed.Truncate(time.Millisecond), *out)
	for ep, s := range rep.Endpoints {
		fmt.Printf("  %-8s n=%-6d p50=%dus p99=%dus\n", ep, s.Requests, s.P50US, s.P99US)
	}
	fmt.Printf("  hit=%.2f coalesce=%.2f 429=%.3f 503=%.3f 504=%.3f\n",
		rep.HitRatio, rep.CoalesceRatio, rep.Rate429, rep.Rate503, rep.Rate504)
	fmt.Printf("  measure hit p50=%dus (n=%d), hit traces waiting on a batch: %d/%d\n",
		rep.HitPath.MeasureP50US, rep.HitPath.MeasureHits, rep.HitPath.WaitSpans, rep.HitPath.Traces)
	if rep.Fleet != nil {
		fmt.Printf("  fleet(%d): n=%d hit=%.2f forward=%.2f multi_owner=%d\n",
			rep.Fleet.Nodes, rep.Fleet.Requests, rep.Fleet.HitRatio, rep.Fleet.ForwardRatio, rep.Fleet.MultiOwnerKeys)
	}
	return harness.ExitOK
}

// verifyArtifact checks the structural invariants of a committed
// BENCH_serve.json and the telemetry snapshot written next to it. All
// violations are reported at once.
func verifyArtifact(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if rep.Schema != Schema {
		fail("schema %q, want %q", rep.Schema, Schema)
	}
	if rep.Requests <= 0 {
		fail("requests = %d, want > 0", rep.Requests)
	}
	if rep.DurationMS <= 0 {
		fail("duration_ms = %d, want > 0", rep.DurationMS)
	}
	checkEndpoints := func(lane string, endpoints map[string]endpointStats) {
		if _, ok := endpoints["measure"]; !ok {
			fail("%s: endpoints carries no measure entry", lane)
		}
		for ep, s := range endpoints {
			if s.Requests <= 0 {
				fail("%s endpoint %s: requests = %d", lane, ep, s.Requests)
			}
			if s.P50US <= 0 {
				fail("%s endpoint %s: p50_us = %d, want > 0", lane, ep, s.P50US)
			}
			if !(s.P50US <= s.P90US && s.P90US <= s.P99US && s.P99US <= s.P999US && s.P999US <= s.MaxUS) {
				fail("%s endpoint %s: quantiles not monotone: p50=%d p90=%d p99=%d p999=%d max=%d",
					lane, ep, s.P50US, s.P90US, s.P99US, s.P999US, s.MaxUS)
			}
		}
	}
	checkEndpoints("single", rep.Endpoints)
	ratio := func(name string, v float64) {
		if v < 0 || v > 1 {
			fail("%s = %v outside [0,1]", name, v)
		}
	}
	ratio("hit_ratio", rep.HitRatio)
	ratio("coalesce_ratio", rep.CoalesceRatio)
	ratio("rate_429", rep.Rate429)
	ratio("rate_503", rep.Rate503)
	ratio("rate_504", rep.Rate504)
	// The warmed, fingerprint-reusing mix must actually hit the cache
	// and actually coalesce — a run where neither happens measured the
	// wrong thing.
	if rep.HitRatio == 0 {
		fail("hit_ratio = 0: the warmed mix never hit the result cache")
	}
	if rep.CoalesceRatio == 0 {
		fail("coalesce_ratio = 0: the burst phase never coalesced")
	}
	for _, stage := range []string{"parse", "queue_wait", "cache_probe", "replay", "encode"} {
		s, ok := rep.StagesUS[stage]
		if !ok || s.Count <= 0 {
			fail("stages_us missing %q (span data absent from /debug/requests scrape)", stage)
		} else if s.TotalUS < 0 {
			fail("stages_us[%q].total_us = %d", stage, s.TotalUS)
		}
	}

	// Hit fast path: a hit is answered in the handler, so it never
	// waits on the queue, and a measure hit
	// costs well under a millisecond end to end.
	if hp := rep.HitPath; hp.MeasureHits == 0 || hp.Traces == 0 {
		fail("hit_path saw %d probe hits and %d hit traces, want both > 0", hp.MeasureHits, hp.Traces)
	} else if hp.MeasureP50US >= maxHitP50US {
		fail("hit_path: measure-hit p50 %dus, want < %dus", hp.MeasureP50US, maxHitP50US)
	}
	if rep.HitPath.WaitSpans != 0 {
		fail("hit_path: %d hit traces carry a queue_wait span", rep.HitPath.WaitSpans)
	}

	// Fleet lane gates: exactly-one-owner, the (n-1)/n forward ratio of
	// uniform arrivals, owner-cache affinity at least as good as the
	// single node's, and the forward span present in the attribution.
	if rep.Fleet != nil {
		fr := rep.Fleet
		if fr.Nodes < 2 {
			fail("fleet: nodes = %d, want >= 2", fr.Nodes)
		}
		if fr.Requests <= 0 {
			fail("fleet: requests = %d, want > 0", fr.Requests)
		}
		checkEndpoints("fleet", fr.Endpoints)
		ratio("fleet.hit_ratio", fr.HitRatio)
		ratio("fleet.forward_ratio", fr.ForwardRatio)
		if fr.MultiOwnerKeys != 0 {
			fail("fleet: %d keys executed on more than one owner", fr.MultiOwnerKeys)
		}
		if fr.HitRatio < rep.HitRatio {
			fail("fleet: hit_ratio %.3f below single-node %.3f — sharding lost owner-cache affinity",
				fr.HitRatio, rep.HitRatio)
		}
		expect := float64(fr.Nodes-1) / float64(fr.Nodes)
		if math.Abs(fr.ForwardRatio-expect) > 0.15 {
			fail("fleet: forward_ratio %.3f, want %.3f±0.15 for uniform arrivals on %d nodes",
				fr.ForwardRatio, expect, fr.Nodes)
		}
		if s, ok := fr.StagesUS["forward"]; !ok || s.Count <= 0 {
			fail("fleet: stages_us missing the forward span")
		}
		if fr.Counters.Forwarded == 0 {
			fail("fleet: ownership counters report zero forwards")
		}
		if fr.HitPath.Traces == 0 || fr.HitPath.WaitSpans != 0 {
			fail("fleet: %d of %d hit traces carry a queue_wait span", fr.HitPath.WaitSpans, fr.HitPath.Traces)
		}
	}

	// The spawned server's SIGTERM drain exports its telemetry next to
	// the artifact; it must validate and carry the serving-path
	// latency histograms and request traces.
	tpath := filepath.Join(filepath.Dir(path), "telemetry_serve.json")
	tbuf, err := os.ReadFile(tpath)
	if err != nil {
		fail("telemetry snapshot missing next to %s: %v", path, err)
	} else {
		snap, err := obs.ValidateSnapshot(tbuf)
		if err != nil {
			fail("telemetry snapshot invalid: %v", err)
		} else {
			found := false
			for name := range snap.Histograms {
				if strings.HasPrefix(name, "serve_latency_us{") {
					found = true
					break
				}
			}
			if !found {
				fail("telemetry snapshot carries no serve_latency_us histograms")
			}
			if len(snap.Requests) == 0 {
				fail("telemetry snapshot carries no request traces")
			}
		}
	}

	if len(bad) > 0 {
		return fmt.Errorf("%s failed %d checks:\n  %s", path, len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
