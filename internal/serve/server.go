// Package serve is the fvcached simulation service: an HTTP/JSON front
// end that accepts measurement, miss-rate-curve and sweep requests
// from many concurrent clients and coalesces their cache misses into
// batches: fused replays for /v1/measure, analysis passes for /v1/mrc.
//
// Each request first probes the durable result cache in its own
// handler: configurations the cache answers never wait, and a request
// the cache answers in full is encoded straight back without touching
// the batching machinery. The misses of requests for the same
// (workload, scale, options) are merged into ONE
// sim.MeasureRecordedBatch execution: their configurations are
// deduplicated into a single fused SystemSet replay over the shared
// recording cache, and each client receives its own slice of the
// results. The first miss of a key opens a batch and queues it at
// once; later misses join it while it waits for a worker, and
// identical misses still join it while it replays, up to the moment
// its results fan out. A /v1/mrc miss takes the same path: identical
// misses share one MRC batch, which runs one sharded analysis pass. A
// bounded worker pool executes batches of both kinds; when the batch
// queue is full, the request that would open a batch is rejected with
// 429 (backpressure) instead of piling up. Shutdown drains: queued and
// in-flight batches and running sweeps complete, and only then do the
// workers exit.
//
// The serving path is fault-hardened (see DESIGN.md, "Durability &
// degradation model"):
//
//   - A durable result cache (internal/resultcache), probed before
//     coalescing, makes repeat traffic O(1) and survives restarts.
//   - Per-request deadlines (?deadline_ms= or the body's deadline_ms)
//     propagate into the batch context and cancel a running replay;
//     an expired request gets 504.
//   - A per-(workload, scale) circuit breaker sheds traffic for keys
//     whose executor keeps panicking or timing out, with 503 +
//     Retry-After, while healthy keys keep serving.
//   - Every retryable rejection (429/503/504) carries a Retry-After
//     header and a machine-readable {"retryable": true} body.
//   - /healthz is pure liveness (200 while the process runs); /readyz
//     is readiness and goes 503 during boot recovery and drain.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/fleet"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/obs/reqtrace"
	"fvcache/internal/resultcache"
)

// Service metrics, exported on /debug/metrics and in the telemetry
// snapshot.
var (
	reqTotal       = obs.Default.Counter("serve_requests_total")
	reqRejected    = obs.Default.Counter("serve_rejected_total")
	reqErrors      = obs.Default.Counter("serve_errors_total")
	batchesTotal   = obs.Default.Counter("serve_batches_total")
	coalescedTotal = obs.Default.Counter("serve_coalesced_requests_total")
	batchConfigs   = obs.Default.Histogram("serve_batch_configs")
	queueDepth     = obs.Default.Gauge("serve_queue_depth")
	inflightReqs   = obs.Default.Gauge("serve_inflight_requests")

	deadlineExceeded = obs.Default.Counter("serve_deadline_exceeded")
	breakerOpenTotal = obs.Default.Counter("serve_breaker_open")
)

// Fixed limits of the serving path.
const (
	// maxBatchConfigs caps distinct configurations fused into one
	// batch; a request that would overfill a batch opens a fresh one.
	maxBatchConfigs = 64
	// maxSweeps bounds concurrent /v1/sweep executions.
	maxSweeps = 2
)

// Options configures a Server.
type Options struct {
	// Workers is the batch worker pool size (<=0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the batch queue; a full queue rejects new
	// batches with 429 (<=0 means 64).
	QueueDepth int
	// RequestTimeout bounds one batch execution (<=0 means 120s).
	RequestTimeout time.Duration
	// DefaultDeadline is the per-request deadline applied when a
	// request carries none of its own (<=0 means no default; the batch
	// is still bounded by RequestTimeout).
	DefaultDeadline time.Duration
	// BreakerThreshold is how many consecutive executor failures
	// (panics, timeouts) open a (workload, scale) key's circuit
	// breaker (<=0 means 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds that key's
	// traffic before admitting a probe (<=0 means 5s).
	BreakerCooldown time.Duration
	// ResultCache, when non-nil, serves repeat measurements without
	// re-simulating: handlers probe it before coalescing, so a hit
	// never waits for a batch. It can also be attached after New with
	// SetResultCache (fvcached opens it during the boot recovery scan,
	// while the listener is already up but /readyz reports 503).
	ResultCache *resultcache.Cache
	// StartUnready makes /readyz report 503 until SetReady(true);
	// use it when boot work (the cache recovery scan) runs after the
	// listener is accepting.
	StartUnready bool
	// TraceRing bounds the flight-recorder ring served at
	// /debug/requests (<=0 means 256 recent traces).
	TraceRing int

	// Fleet, when non-nil, turns on consistent-hash owner-forwarding:
	// requests whose config fingerprint hashes to a peer are proxied to
	// it (one hop max), so each (workload, scale, config) is computed
	// and cached on exactly one node. Nil means single-node serving.
	Fleet *fleet.Fleet
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// call is one client request's seat in a batch: which of the batch's
// deduplicated configs it wants, and where the worker delivers them.
type call struct {
	idx  []int
	done chan callResult
}

type callResult struct {
	results []fvcache.MeasureResult
	info    api.BatchInfo
	// b is the executed batch, carried back so the request handler can
	// attach the batch's stage timeline to its own trace.
	b      *batch
	status int // HTTP status when err != nil
	err    error
}

// batch is one coalescing unit: the cache misses of every request
// sharing (workload, scale, options) that joined it between its
// opening and the end of its replay, with their configurations
// deduplicated by fingerprint, or every miss of one normalized MRC
// request.
type batch struct {
	key      string
	workload string
	scale    fvcache.Scale
	opts     fvcache.Options
	optsFP   string // canonical options JSON, part of the cache key
	// mrc, when set, makes this an MRC batch: one analysis pass over
	// the normalized request instead of a fused replay. Its configs stay
	// empty, so only requests for the same curves share it.
	mrc *fvcache.MRCRequest
	// id is the batch's trace ID, echoed to every coalesced member so
	// clients can correlate requests fused into one execution.
	id string

	configs []api.Config
	fps     map[string]int
	subs    []*call
	// running is set under Server.mu when a worker takes the batch off
	// the queue. From then on configs, fps and the deadline fields are
	// frozen: only requests the batch already covers may still join.
	running bool

	// Stage timestamps, stamped as the batch moves through the serving
	// pipeline; zero values mean the stage never ran (stubbed executor,
	// early failure) and are skipped by trace/stage accounting.
	created    time.Time // batch opened and queued
	execStart  time.Time // worker picked it up
	replayDone time.Time // replay finished

	// deadline is the latest member deadline; the batch context must
	// outlive every coalesced request. unbounded is set when any member
	// carries no deadline at all (the batch then runs under
	// RequestTimeout only).
	deadline  time.Time
	unbounded bool
}

// admits reports whether a request missing the configs fps, with the
// given deadline (zero = none), may take a seat in b. A queued batch
// takes new configs up to maxBatchConfigs. A running batch takes only
// requests whose every config it already replays and whose deadline
// its own covers, so a joiner never changes what the worker reads.
func (b *batch) admits(fps []string, deadline time.Time) bool {
	fresh := newConfigs(b.fps, fps)
	if !b.running {
		return len(b.configs)+fresh <= maxBatchConfigs
	}
	return fresh == 0 &&
		(b.unbounded || !deadline.IsZero() && !deadline.After(b.deadline))
}

// newConfigs counts the distinct fingerprints in fps that held lacks.
func newConfigs(held map[string]int, fps []string) int {
	fresh := make(map[string]bool)
	for _, fp := range fps {
		if _, ok := held[fp]; !ok {
			fresh[fp] = true
		}
	}
	return len(fresh)
}

// Server coalesces measurement requests into fused batch executions.
type Server struct {
	opt Options
	mux *http.ServeMux

	mu      sync.Mutex
	pending map[string]*batch
	qClosed bool

	queue chan *batch
	// wg counts the workers and the running sweeps: Shutdown waits for
	// both.
	wg       sync.WaitGroup
	baseCtx  context.Context
	stop     context.CancelFunc
	draining atomic.Bool
	ready    atomic.Bool
	sweepSem chan struct{}

	cache atomic.Pointer[resultcache.Cache]
	brk   *breaker
	// rec is the per-request flight recorder behind /debug/requests.
	rec *reqtrace.Recorder

	// fleetState holds the consistent-hash ring, per-peer forwarding
	// clients and ownership counters (see fleet.go). Zero when the
	// server runs single-node.
	fleetState

	// execSweep runs one sweep; tests stub it to inject mid-stream
	// failures. Defaults to fvcache.Sweep.
	execSweep func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error)

	// exec runs one batch, a fused replay or an MRC pass; tests stub it
	// to control worker timing. Defaults to execBatch.
	exec func(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error)

	// Server-local counters, so tests can assert on this instance
	// without reading process-global telemetry.
	nBatches   atomic.Uint64
	nCoalesced atomic.Uint64
	nRejected  atomic.Uint64
}

// New builds a Server and starts its worker pool. Callers must
// Shutdown it to stop the workers.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		pending:  make(map[string]*batch),
		queue:    make(chan *batch, opt.QueueDepth),
		baseCtx:  ctx,
		stop:     cancel,
		sweepSem: make(chan struct{}, maxSweeps),
		brk:      newBreaker(opt.BreakerThreshold, opt.BreakerCooldown),
		rec:      reqtrace.NewRecorder(opt.TraceRing),
	}
	s.ready.Store(!opt.StartUnready)
	if opt.ResultCache != nil {
		s.cache.Store(opt.ResultCache)
	}
	s.exec = s.execBatch
	s.execSweep = func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error) {
		return fvcache.Sweep(ctx, req)
	}
	s.initFleet(opt.Fleet)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/measure", s.handleMeasure)
	s.mux.HandleFunc("/v1/mrc", s.handleMRC)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/v1/artifacts", s.handleArtifacts)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/fleet", s.handleFleet)
	s.mux.Handle("/debug/requests", s.rec.Handler())
	// Export this server's recent traces in the telemetry snapshot
	// (last server created wins the process-global hook; fvcached runs
	// exactly one).
	obs.Default.SetRequestTraces(s.rec.Traces)
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetResultCache attaches (or replaces) the durable result cache.
// Safe to call while serving: fvcached attaches the cache after its
// boot recovery scan finishes, while the listener is already up.
func (s *Server) SetResultCache(c *resultcache.Cache) { s.cache.Store(c) }

// SetReady flips the /readyz readiness signal (boot work finished, or
// the process is about to drain).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Stats is a point-in-time snapshot of this server's coalescing
// counters (test observability; the process-wide metrics are on
// /debug/metrics).
type Stats struct {
	// Batches is how many batch executions (fused replays and MRC
	// passes) ran.
	Batches uint64
	// Coalesced is how many requests joined an already-open batch.
	Coalesced uint64
	// Rejected is how many requests were refused with 429.
	Rejected uint64
}

// ServerStats returns the server-local counters.
func (s *Server) ServerStats() Stats {
	return Stats{
		Batches:   s.nBatches.Load(),
		Coalesced: s.nCoalesced.Load(),
		Rejected:  s.nRejected.Load(),
	}
}

// Shutdown drains the service: queued and in-flight batches complete
// (delivering results to their waiting requests), running sweeps
// finish, and the workers exit. New requests are rejected with 503
// from the first call on. If ctx expires first, in-flight batch
// replays and sweeps are cancelled and the drain finishes with ctx's
// error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.qClosed {
		s.qClosed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop() // cancel in-flight replays
		<-done
		return ctx.Err()
	}
}

// submit seats a request's missing configs cfgs in the open batch
// under nb.key, or opens nb itself and queues it when that batch
// cannot admit them, and returns the caller's seat. nb carries the
// key and the execution fields (workload, scale, options or MRC
// request). deadline is the request's absolute deadline (zero = none);
// the batch runs until its latest member deadline so one impatient
// client cannot cancel its seat-mates.
func (s *Server) submit(nb *batch, cfgs []api.Config, deadline time.Time) (*call, error) {
	fps := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		fps[i] = cfg.Fingerprint()
	}
	if newConfigs(nil, fps) > maxBatchConfigs {
		return nil, fmt.Errorf("request spans more than %d distinct configurations", maxBatchConfigs)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qClosed {
		return nil, errDraining
	}
	b := s.pending[nb.key]
	if b != nil && b.admits(fps, deadline) {
		s.nCoalesced.Add(1)
		coalescedTotal.Inc()
	} else {
		b = nb
		b.fps, b.id, b.created = make(map[string]int), s.rec.Mint(), time.Now()
		select {
		case s.queue <- b:
		default:
			s.nRejected.Add(1)
			reqRejected.Inc()
			return nil, errOverloaded
		}
		queueDepth.Set(float64(len(s.queue)))
		s.pending[b.key] = b
	}
	c := &call{idx: make([]int, len(cfgs)), done: make(chan callResult, 1)}
	for j, fp := range fps {
		i, ok := b.fps[fp]
		if !ok {
			i = len(b.configs)
			b.configs = append(b.configs, cfgs[j])
			b.fps[fp] = i
		}
		c.idx[j] = i
	}
	// A running batch already covers this caller's deadline (admits),
	// and its worker reads the deadline unlocked: leave it alone.
	if !b.running {
		if deadline.IsZero() {
			b.unbounded = true
		} else if deadline.After(b.deadline) {
			b.deadline = deadline
		}
	}
	b.subs = append(b.subs, c)
	return c, nil
}

var (
	errDraining   = errors.New("service is shutting down")
	errOverloaded = errors.New("batch queue full, retry later")
)

// worker executes batches until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for b := range s.queue {
		queueDepth.Set(float64(len(s.queue)))
		s.runBatch(b)
	}
}

// execStatus maps an executor error to the HTTP status its waiters
// get: 504 when a deadline ran out, 503 when the drain cancelled the
// run, 500 otherwise.
func execStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// runBatch executes one batch through the exec hook under the batch
// deadline, records the batch trace and stage timings, reports the
// outcome to the breaker, and fans the results back to every coalesced
// request.
func (s *Server) runBatch(b *batch) {
	// Freeze the batch: from here on only requests it already covers
	// may join, so configs and the deadline are safe to read unlocked.
	s.mu.Lock()
	b.running = true
	s.mu.Unlock()
	s.nBatches.Add(1)
	batchesTotal.Inc()
	if b.mrc == nil {
		batchConfigs.Observe(uint64(len(b.configs)))
	}
	span := obs.Begin("serve:batch:" + b.workload)
	defer span.Done()
	b.execStart = time.Now()

	// The batch gets its own flight-recorder trace under its shared ID:
	// a client holding the trace_id from any coalesced member's response
	// finds the fused execution's stage timeline at /debug/requests.
	bt := s.rec.StartTrace("batch", b.id, b.created)
	bt.SetWorkload(b.workload)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.opt.RequestTimeout)
	defer cancel()
	if !b.unbounded && !b.deadline.IsZero() {
		// Every member carries a deadline: bound the replay by the
		// latest one (RequestTimeout still caps it above).
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, b.deadline)
		defer dcancel()
	}
	// Layers below the executor (profile resolution) attach their spans to the batch trace through the context.
	ctx = reqtrace.NewContext(ctx, bt)

	// harness.Recover contains executor panics (a poisoned workload or
	// config must fail its own batch, not the process); the breaker
	// then counts them toward opening that (workload, scale) key.
	var results []fvcache.MeasureResult
	err := harness.Recover(func() error {
		var execErr error
		results, execErr = s.exec(ctx, b)
		return execErr
	})
	b.replayDone = time.Now()
	// Close the batch: no request joins it after this, so subs is final.
	s.mu.Lock()
	if s.pending[b.key] == b {
		delete(s.pending, b.key)
	}
	s.mu.Unlock()
	observeBatchStages(b)
	bt.Add("queue_wait", -1, b.created, b.execStart)
	bt.Add("replay", -1, b.execStart, b.replayDone)
	s.brk.report(b.workload+"|"+b.scale.String(), err == nil || errors.Is(err, context.Canceled))
	if err != nil {
		status := execStatus(err)
		reqErrors.Add(uint64(len(b.subs)))
		obs.Log.Warn("batch failed", "workload", b.workload, "configs", len(b.configs), "err", err.Error())
		bt.SetError(err.Error())
		bt.SetOutcome(status, outcomeFor(status, ""))
		s.rec.Finish(bt)
		for _, c := range b.subs {
			c.done <- callResult{status: status, err: err}
		}
		return
	}
	info := api.BatchInfo{
		Requests:  len(b.subs),
		Configs:   len(b.configs),
		Coalesced: len(b.subs) > 1,
		TraceID:   b.id,
		Node:      s.nodeURL(),
	}
	bt.SetOutcome(http.StatusOK, "executed")
	s.rec.Finish(bt)
	for _, c := range b.subs {
		// An MRC batch hands every member the whole framed curve set.
		rs := results
		if b.mrc == nil {
			rs = make([]fvcache.MeasureResult, len(c.idx))
			for j, i := range c.idx {
				rs[j] = results[i]
			}
		}
		c.done <- callResult{results: rs, info: info, b: b}
	}
	obs.Log.Debug("batch served", "workload", b.workload, "requests", len(b.subs), "configs", len(b.configs))
}

// execBatch runs one batch and offers the fresh results to the durable
// cache, whose admission policy decides what becomes durable. The
// handlers already answered everything the cache held, so work only
// lands here on a miss. An MRC batch is one sharded analysis pass,
// returned in the cache's entry framing (encodeMRC). A measure batch
// materializes its configurations (resolving profile-derived FVTs from
// the shared profile cache) and drives one fused replay for all of
// them.
func (s *Server) execBatch(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
	if b.mrc != nil {
		req := *b.mrc
		req.Shards = s.opt.Workers
		res, err := fvcache.MissRateCurves(ctx, req)
		if err != nil {
			return nil, err
		}
		rs := encodeMRC(res)
		if cache := s.cache.Load(); cache != nil {
			cache.Put(mrcCacheKey(*b.mrc), rs)
		}
		return rs, nil
	}
	tr := reqtrace.FromContext(ctx)
	cfgs := make([]fvcache.Config, len(b.configs))
	for i, cw := range b.configs {
		var values []uint32
		if cw.NeedsProfile() {
			pspan := tr.Begin("profile", -1)
			var err error
			values, err = fvcache.Profile(ctx, fvcache.ProfileRequest{
				Workload: b.workload, Scale: b.scale, K: fvcache.MaxFVTValues(cw.FVCBits),
			})
			tr.End(pspan)
			if err != nil {
				return nil, err
			}
		}
		cfgs[i] = cw.Materialize(values)
	}
	results, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{
		Workload: b.workload, Scale: b.scale, Configs: cfgs, Options: b.opts,
	})
	if err != nil {
		return nil, err
	}
	if cache := s.cache.Load(); cache != nil {
		for i, cw := range b.configs {
			cache.Put(measureKey(b.workload, b.scale, cw.Fingerprint(), b.optsFP),
				[]fvcache.MeasureResult{results[i]})
		}
	}
	return results, nil
}

// measureKey is the durable-cache key of one normalized configuration
// under a request's canonical options.
func measureKey(workload string, scale fvcache.Scale, cfgFP, optsFP string) resultcache.Key {
	return resultcache.Key{
		Workload: workload,
		Scale:    scale.String(),
		ConfigFP: cfgFP + "|opts:" + optsFP,
		Engine:   fvcache.EngineVersion,
	}
}

// cacheProbe is one request's durable-cache lookup: the cached result
// of every config the cache held, and the request positions it did
// not.
type cacheProbe struct {
	results  []fvcache.MeasureResult // by request position; zero where missed
	missing  []int                   // request positions to execute
	hits     int
	diskHits int // subset of hits faulted in from the disk tier
}

// probeCache looks every config of a request up in the durable result
// cache. Without a cache every config misses and no span is recorded.
func (s *Server) probeCache(t *reqTrack, workload string, scale fvcache.Scale, optsFP string, cfgs []api.Config) cacheProbe {
	p := cacheProbe{results: make([]fvcache.MeasureResult, len(cfgs))}
	cache := s.cache.Load()
	if cache == nil {
		p.missing = make([]int, len(cfgs))
		for i := range p.missing {
			p.missing[i] = i
		}
		return p
	}
	probe := t.stage("cache_probe", stageCacheUS)
	for i, cw := range cfgs {
		rs, tier := cache.GetTier(measureKey(workload, scale, cw.Fingerprint(), optsFP))
		if tier == resultcache.TierNone || len(rs) != 1 {
			p.missing = append(p.missing, i)
			continue
		}
		p.results[i] = rs[0]
		p.hits++
		if tier == resultcache.TierDisk {
			p.diskHits++
		}
	}
	probe.end()
	return p
}

// handleMeasure serves POST /v1/measure.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req api.MeasureRequest
	t, parse := s.open("measure", w, r, &req)
	if t == nil {
		return
	}
	span := obs.Begin("serve:measure")
	defer span.Done()
	t.tr.SetWorkload(req.Workload)
	if _, err := fvcache.LookupWorkload(req.Workload); err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	scale, err := parseScale(req.Scale)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	cfgs := req.Configs
	if req.Config != nil {
		cfgs = append([]api.Config{*req.Config}, cfgs...)
	}
	if len(cfgs) == 0 {
		cfgs = []api.Config{{}} // default geometry
	}
	for i := range cfgs {
		cfgs[i] = cfgs[i].Normalized()
		if err := cfgs[i].Validate(); err != nil {
			t.fail(http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
	}
	deadline, err := requestDeadline(r, req.DeadlineMS, t.start, s.opt.DefaultDeadline)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	optsJSON, err := json.Marshal(req.Options)
	if err != nil {
		t.fail(http.StatusInternalServerError, fmt.Errorf("encoding options: %w", err))
		return
	}
	optsFP := string(optsJSON)
	parse.end()

	// Fleet ownership: a request whose configs all hash to one peer is
	// proxied there, so each config is computed and cached on exactly
	// one node. Forwarded requests (guard header) always run locally.
	var ring []string
	if s.fleet != nil {
		for _, cfg := range cfgs {
			ring = append(ring, ownershipKey(req.Workload, scale, cfg.Fingerprint(), optsFP))
		}
	}
	if owner := s.fleetOwner(r, ring); owner != nil {
		if s.forwardMeasure(t, req, deadline, owner) {
			return
		}
		// The owner was unreachable: degrade to local execution rather
		// than failing the request (the result just isn't owner-cached).
	}

	// Cache hits never wait: every config the durable cache holds is
	// answered here, and a request it answers in full is encoded
	// straight back — no batch, timer, queue slot or breaker check.
	p := s.probeCache(t, req.Workload, scale, optsFP, cfgs)
	if len(p.missing) == 0 {
		s.writeMeasure(t, req.Workload, scale, p.results, api.BatchInfo{
			Requests:      1,
			Configs:       len(cfgs),
			CacheHits:     p.hits,
			CacheDiskHits: p.diskHits,
			TraceID:       t.tr.ID(),
			Node:          s.nodeURL(),
		}, "hit")
		return
	}

	misses := make([]api.Config, len(p.missing))
	for j, i := range p.missing {
		misses[j] = cfgs[i]
	}
	res, ok := s.await(t, &batch{
		key:      req.Workload + "|" + scale.String() + "|" + optsFP,
		workload: req.Workload, scale: scale, opts: req.Options, optsFP: optsFP,
	}, misses, deadline)
	if !ok {
		return
	}
	// Splice the executed misses back between the cached hits, in
	// request order.
	for j, i := range p.missing {
		p.results[i] = res.results[j]
	}
	info := res.info
	info.CacheHits, info.CacheDiskHits = p.hits, p.diskHits
	s.writeMeasure(t, req.Workload, scale, p.results, info, execClass(info.Coalesced))
}

// execClass is the latency-series class of an executed response.
func execClass(coalesced bool) string {
	if coalesced {
		return "coalesced"
	}
	return "executed"
}

// await submits a request's cache misses (see submit) and waits for
// its batch under the batch_wait span, or for the request's own
// deadline or disconnect. Keys whose executor keeps failing are shed
// first, before their misses can occupy a batch seat; hits, answered
// by the handlers, and healthy keys are unaffected. On any failure
// await has already written the error response and returns false.
func (s *Server) await(t *reqTrack, nb *batch, cfgs []api.Config, deadline time.Time) (callResult, bool) {
	brkKey := nb.workload + "|" + nb.scale.String()
	if ok, retryAfter := s.brk.allow(brkKey); !ok {
		breakerOpenTotal.Inc()
		t.reply(http.StatusServiceUnavailable, &api.Error{
			Message: fmt.Sprintf("circuit breaker open for %s after repeated failures", brkKey),
			Reason:  api.ReasonBreakerOpen, Retryable: true, RetryAfter: retryAfter, TraceID: t.tr.ID(),
		})
		return callResult{}, false
	}
	wait := t.tr.Begin("batch_wait", -1)
	c, err := s.submit(nb, cfgs, deadline)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errDraining):
			status = http.StatusServiceUnavailable
		case errors.Is(err, errOverloaded):
			status = http.StatusTooManyRequests
		}
		t.fail(status, err)
		return callResult{}, false
	}
	var deadlineCh <-chan time.Time
	if !deadline.IsZero() {
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		deadlineCh = tm.C
	}
	select {
	case res := <-c.done:
		t.attachBatchSpans(wait, res.b)
		t.tr.End(wait)
		if res.err == nil {
			return res, true
		}
		if res.status == http.StatusGatewayTimeout {
			deadlineExceeded.Inc()
		}
		t.fail(res.status, res.err)
	case <-deadlineCh:
		// This request's own deadline fired first. The batch keeps
		// running for its seat-mates (its context outlives us); the
		// worker's buffered send still completes.
		t.tr.End(wait)
		deadlineExceeded.Inc()
		t.fail(http.StatusGatewayTimeout,
			fmt.Errorf("deadline of %s exceeded", time.Since(t.start).Round(time.Millisecond)))
	case <-t.req.Context().Done():
		// Client went away; the worker's buffered send still completes.
		t.tr.End(wait)
		t.fail(http.StatusServiceUnavailable, t.req.Context().Err())
	}
	return callResult{}, false
}

// writeMeasure encodes a successful /v1/measure response and seals the
// request's trace under class.
func (s *Server) writeMeasure(t *reqTrack, workload string, scale fvcache.Scale, results []fvcache.MeasureResult, info api.BatchInfo, class string) {
	encode := t.stage("encode", stageEncodeUS)
	out := api.MeasureResponse{
		Workload: workload,
		Scale:    scale.String(),
		Results:  make([]api.Result, len(results)),
		Batch:    info,
	}
	for i, mr := range results {
		out.Results[i] = toResult(mr)
	}
	writeJSON(t.w, http.StatusOK, out)
	encode.end()
	t.finish(http.StatusOK, class)
}

// toResult is one configuration's measurement in wire form.
func toResult(r fvcache.MeasureResult) api.Result {
	return api.Result{
		Stats:        r.Stats,
		Accesses:     r.Stats.Accesses(),
		MissRate:     r.Stats.MissRate(),
		TrafficBytes: r.Stats.TrafficBytes(),
		FVCFreqFrac:  r.FVCFreqFrac,
		FVCOccupancy: r.FVCOccupancy,
	}
}

// requestDeadline resolves a request's absolute deadline from the
// ?deadline_ms= query parameter (which wins), the body's deadline_ms,
// or the server default. Zero means unbounded (RequestTimeout still
// applies to the batch).
func requestDeadline(r *http.Request, bodyMS int64, start time.Time, def time.Duration) (time.Time, error) {
	ms := bodyMS
	if q := r.URL.Query().Get("deadline_ms"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			return time.Time{}, fmt.Errorf("deadline_ms: %w", err)
		}
		ms = v
	}
	// Past maxMS the conversion to a Duration wraps, which would turn a
	// far deadline into an expired one.
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	if ms < 0 || ms > maxMS {
		return time.Time{}, fmt.Errorf("deadline_ms must be in [0, %d], got %d", maxMS, ms)
	}
	if ms > 0 {
		return start.Add(time.Duration(ms) * time.Millisecond), nil
	}
	if def > 0 {
		return start.Add(def), nil
	}
	return time.Time{}, nil
}

// handleSweep serves POST /v1/sweep, streaming one JSON line per
// completed artifact followed by a summary line. A running sweep holds
// the drain open: Shutdown waits for it, and cancels it once the
// drain's own deadline expires.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	t, parse := s.open("sweep", w, r, &req)
	if t == nil {
		return
	}
	span := obs.Begin("serve:sweep")
	defer span.Done()
	scale, err := parseScale(req.Scale)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	parse.end()
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		reqRejected.Inc()
		t.fail(http.StatusTooManyRequests, errors.New("sweep capacity exhausted, retry later"))
		return
	}
	s.mu.Lock()
	if s.qClosed {
		s.mu.Unlock()
		t.fail(http.StatusServiceUnavailable, errDraining)
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	// A sweep's simulations share the machine with the batch pool, so
	// they get at most its worker count; unset means all of it.
	workers := req.Workers
	if workers <= 0 || workers > s.opt.Workers {
		workers = s.opt.Workers
	}
	run := t.tr.Begin("sweep_run", -1)
	out := t.ndjson("")
	res, err := s.execSweep(ctx, fvcache.SweepRequest{
		Artifacts: req.Artifacts,
		Scale:     scale,
		Workers:   workers,
		Markdown:  req.Markdown,
		OnArtifact: func(ar fvcache.ArtifactResult) {
			out.line(api.SweepLine{Artifact: &ar})
		},
	})
	t.tr.End(run)
	switch {
	case err == nil:
		out.last(api.SweepLine{Summary: res})
		t.finish(http.StatusOK, "executed")
	case !out.started:
		// Nothing on the wire yet: a clean enveloped status is still
		// possible (unknown artifact and the like are the request's
		// fault).
		t.fail(http.StatusBadRequest, err)
	default:
		out.fail(&api.Error{Message: err.Error(), Reason: api.ReasonInternal, TraceID: t.tr.ID()})
	}
}

// handleWorkloads serves GET /v1/workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.track("workloads", w, r).fail(http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Workloads []fvcache.WorkloadInfo `json:"workloads"`
	}{fvcache.Workloads()})
}

// handleArtifacts serves GET /v1/artifacts.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.track("artifacts", w, r).fail(http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Artifacts []fvcache.ArtifactInfo `json:"artifacts"`
	}{fvcache.Artifacts()})
}

// handleHealthz serves GET /healthz: pure liveness. It answers 200 as
// long as the process can serve HTTP at all — including during boot
// recovery and drain — so orchestrators don't kill a process that is
// merely busy. Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

// handleReadyz serves GET /readyz: readiness. 503 while boot work
// (the result-cache recovery scan) is still running and from the
// first drain signal on, so load balancers stop routing before the
// listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "starting\n")
	default:
		io.WriteString(w, "ready\n")
	}
}

// parseScale maps the wire scale (default "test") to a Scale.
func parseScale(s string) (fvcache.Scale, error) {
	if s == "" {
		return fvcache.Test, nil
	}
	return fvcache.ParseScale(s)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// inflight tracks the in-flight request gauge without a registry
// read-modify-write race (Gauge has no Add).
var inflight atomic.Int64

func inflightDelta(d int64) float64 { return float64(inflight.Add(d)) }
