// Package serve is the fvcached simulation service: an HTTP/JSON front
// end that accepts measurement and sweep requests from many concurrent
// clients and coalesces them into the fused batch replay engine.
//
// Each request first probes the durable result cache in its own
// handler: configurations the cache answers never wait, and a request
// the cache answers in full is encoded straight back without touching
// the batching machinery. Only the misses of requests for the same
// (workload, scale, options) arriving within a short window are merged
// into ONE sim.MeasureRecordedBatch execution: their configurations
// are deduplicated into a single fused SystemSet replay over the
// shared recording cache, and each client receives its own slice of
// the results. A bounded worker pool executes batches;
// when the batch queue overflows, new requests are rejected with 429
// (backpressure) instead of piling up. Shutdown drains: in-flight
// requests complete, open coalescing windows flush, and only then do
// the workers exit.
//
// The serving path is fault-hardened (see DESIGN.md, "Durability &
// degradation model"):
//
//   - A durable result cache (internal/resultcache), probed before
//     coalescing, makes repeat traffic O(1) and survives restarts.
//   - Per-request deadlines (?deadline_ms= or the body's deadline_ms)
//     propagate into the batch context and cancel replays at chunk
//     boundaries; an expired request gets 504.
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

// Options configures a Server.
type Options struct {
	// Workers is the batch worker pool size (<=0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the batch queue; a full queue rejects new
	// batches with 429 (<=0 means 64).
	QueueDepth int
	// CoalesceWindow is how long the first request of a batch waits
	// for same-keyed requests to join it (<=0 means 10ms).
	CoalesceWindow time.Duration
	// RequestTimeout bounds one batch execution (<=0 means 120s).
	RequestTimeout time.Duration
	// MaxBatchConfigs caps distinct configurations fused into one
	// batch; a window that fills up dispatches early and keeps
	// coalescing into a fresh batch (<=0 means 64).
	MaxBatchConfigs int
	// MaxSweeps bounds concurrent /v1/sweep executions (<=0 means 2).
	MaxSweeps int
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
	if o.CoalesceWindow <= 0 {
		o.CoalesceWindow = 10 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.MaxBatchConfigs <= 0 {
		o.MaxBatchConfigs = 64
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 2
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
	info    batchInfoWire
	// b is the executed batch, carried back so the request handler can
	// attach the batch's stage timeline to its own trace.
	b      *batch
	status int // HTTP status when err != nil
	err    error
}

// batch is one coalescing unit: the cache misses of every request
// sharing (workload, scale, options) that arrived within the window,
// with their configurations deduplicated by fingerprint.
type batch struct {
	key      string
	workload string
	scale    fvcache.Scale
	opts     fvcache.Options
	optsFP   string // canonical options JSON, part of the cache key
	// id is the batch's trace ID, echoed to every coalesced member so
	// clients can correlate requests fused into one execution.
	id string

	configs []ConfigWire
	fps     map[string]int
	subs    []*call
	timer   *time.Timer

	// Stage timestamps, stamped as the batch moves through the serving
	// pipeline; zero values mean the stage never ran (stubbed executor,
	// early failure) and are skipped by trace/stage accounting.
	created    time.Time // batch opened (coalescing window armed)
	dispatched time.Time // window closed, handed to the queue
	execStart  time.Time // worker picked it up
	replayDone time.Time // replay finished

	// deadline is the latest member deadline; the batch context must
	// outlive every coalesced request. unbounded is set when any member
	// carries no deadline at all (the batch then runs under
	// RequestTimeout only).
	deadline  time.Time
	unbounded bool
}

// failAll delivers an error to every coalesced request of the batch.
func (b *batch) failAll(status int, err error) {
	for _, c := range b.subs {
		c.done <- callResult{status: status, err: err}
	}
}

// Server coalesces measurement requests into fused batch executions.
type Server struct {
	opt Options
	mux *http.ServeMux

	mu      sync.Mutex
	pending map[string]*batch
	qClosed bool

	queue    chan *batch
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

	// mrcState holds the /v1/mrc singleflight table and exec hook
	// (see mrc.go).
	mrcState

	// fleetState holds the consistent-hash ring, per-peer forwarding
	// clients and ownership counters (see fleet.go). Zero when the
	// server runs single-node.
	fleetState

	// execSweep runs one sweep; tests stub it to inject mid-stream
	// failures. Defaults to fvcache.Sweep.
	execSweep func(ctx context.Context, req fvcache.SweepRequest) (*fvcache.SweepResult, error)

	// exec runs one batch's measurements; tests stub it to control
	// worker timing. Defaults to execBatch.
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
		sweepSem: make(chan struct{}, opt.MaxSweeps),
		brk:      newBreaker(opt.BreakerThreshold, opt.BreakerCooldown),
		rec:      reqtrace.NewRecorder(opt.TraceRing),
	}
	s.ready.Store(!opt.StartUnready)
	if opt.ResultCache != nil {
		s.cache.Store(opt.ResultCache)
	}
	s.exec = s.execBatch
	s.mrcFlights = make(map[string]*mrcFlight)
	s.execMRC = s.execMRCPass
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
	// Batches is how many fused batch executions ran.
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

// Shutdown drains the service: open coalescing windows flush
// immediately, queued and in-flight batches complete (delivering
// results to their waiting requests), and the workers exit. New
// requests are rejected with 503 from the first call on. If ctx
// expires first, in-flight batch replays are cancelled at their next
// chunk boundary and the drain finishes with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Flush every open window: ownership moves from the timer to us.
	s.mu.Lock()
	flush := make([]*batch, 0, len(s.pending))
	for _, b := range s.pending {
		b.timer.Stop()
		flush = append(flush, b)
	}
	s.pending = make(map[string]*batch)
	s.mu.Unlock()
	for _, b := range flush {
		s.enqueue(b, true)
	}
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
		s.stop() // cancel in-flight replays at their next chunk boundary
		<-done
		return ctx.Err()
	}
}

// submit coalesces a parsed request into an open batch (or opens one)
// and returns the caller's seat. optsFP is the canonical options JSON
// (precomputed by the handler, which also uses it for fleet ownership).
// deadline is the request's absolute deadline (zero = none); the batch
// runs until its latest member deadline so one impatient client cannot
// cancel its seat-mates.
func (s *Server) submit(workload string, scale fvcache.Scale, opts fvcache.Options, optsFP string, cfgs []ConfigWire, deadline time.Time) (*call, error) {
	key := fmt.Sprintf("%s|%s|%s", workload, scale, optsFP)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qClosed {
		return nil, errDraining
	}
	b := s.pending[key]
	if b == nil {
		b = s.newBatchLocked(key, workload, scale, opts, optsFP)
	} else {
		s.nCoalesced.Add(1)
		coalescedTotal.Inc()
	}
	c := &call{done: make(chan callResult, 1)}
	for _, cfg := range cfgs {
		fp := cfg.Fingerprint()
		i, ok := b.fps[fp]
		if !ok {
			if len(b.configs) >= s.opt.MaxBatchConfigs {
				// The open batch is full: dispatch it now and keep
				// coalescing this (and later) requests into a fresh one.
				// Seats already taken in the full batch stay there; a
				// request can legitimately span two executions only when
				// it alone exceeds the cap, in which case it waits on the
				// last batch it joined.
				s.dispatchLocked(b)
				nb := s.newBatchLocked(key, workload, scale, opts, optsFP)
				if len(c.idx) > 0 {
					// This caller already holds seats in the dispatched
					// batch; it cannot wait on two. Refuse rather than
					// deliver partial results.
					return nil, fmt.Errorf("request spans more than %d distinct configurations", s.opt.MaxBatchConfigs)
				}
				b = nb
			}
			i = len(b.configs)
			b.configs = append(b.configs, cfg)
			b.fps[fp] = i
		}
		c.idx = append(c.idx, i)
	}
	// Merge the caller's deadline into whichever batch it ended up in.
	if deadline.IsZero() {
		b.unbounded = true
	} else if deadline.After(b.deadline) {
		b.deadline = deadline
	}
	b.subs = append(b.subs, c)
	return c, nil
}

// newBatchLocked opens a batch and arms its coalescing window.
func (s *Server) newBatchLocked(key, workload string, scale fvcache.Scale, opts fvcache.Options, optsFP string) *batch {
	b := &batch{
		key: key, workload: workload, scale: scale, opts: opts, optsFP: optsFP,
		fps: make(map[string]int), id: s.rec.Mint(), created: time.Now(),
	}
	s.pending[key] = b
	b.timer = time.AfterFunc(s.opt.CoalesceWindow, func() { s.dispatch(b) })
	return b
}

// dispatch moves a batch from the coalescing window to the queue if
// it still owns it (Shutdown or a full window may have taken it
// first).
func (s *Server) dispatch(b *batch) {
	s.mu.Lock()
	if s.pending[b.key] != b {
		s.mu.Unlock()
		return
	}
	s.dispatchLocked(b)
	s.mu.Unlock()
}

func (s *Server) dispatchLocked(b *batch) {
	delete(s.pending, b.key)
	b.timer.Stop()
	s.enqueueLocked(b, false)
}

// enqueue hands a batch to the worker pool. Non-blocking mode applies
// queue backpressure: a full queue fails the whole batch with 429.
// Blocking mode is used by the Shutdown flush, which must not drop
// accepted work.
func (s *Server) enqueue(b *batch, block bool) {
	s.mu.Lock()
	s.enqueueLocked(b, block)
	s.mu.Unlock()
}

func (s *Server) enqueueLocked(b *batch, block bool) {
	if b.dispatched.IsZero() {
		b.dispatched = time.Now() // covers both timer dispatch and the Shutdown flush
	}
	if s.qClosed {
		b.failAll(http.StatusServiceUnavailable, errDraining)
		return
	}
	if block {
		s.queue <- b
	} else {
		select {
		case s.queue <- b:
		default:
			s.nRejected.Add(uint64(len(b.subs)))
			reqRejected.Add(uint64(len(b.subs)))
			b.failAll(http.StatusTooManyRequests, errOverloaded)
			return
		}
	}
	queueDepth.Set(float64(len(s.queue)))
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

// runBatch materializes the batch's configurations (resolving
// profile-derived FVTs from the shared profile cache), drives one
// fused replay for all of them, and fans the per-config results back
// to every coalesced request.
func (s *Server) runBatch(b *batch) {
	s.nBatches.Add(1)
	batchesTotal.Inc()
	batchConfigs.Observe(uint64(len(b.configs)))
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
		// latest one (RequestTimeout still caps it above). Cancellation
		// lands at the replay's next chunk boundary.
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
	observeBatchStages(b)
	bt.Add("coalesce_wait", -1, b.created, b.dispatched)
	bt.Add("queue_wait", -1, b.dispatched, b.execStart)
	bt.Add("replay", -1, b.execStart, b.replayDone)
	s.brk.report(b.workload+"|"+b.scale.String(), err == nil || errors.Is(err, context.Canceled))
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		reqErrors.Add(uint64(len(b.subs)))
		obs.Log.Warn("batch failed", "workload", b.workload, "configs", len(b.configs), "err", err.Error())
		bt.SetError(err.Error())
		bt.SetOutcome(status, outcomeFor(status, ""))
		s.rec.Finish(bt)
		b.failAll(status, err)
		return
	}
	info := batchInfoWire{
		Requests:  len(b.subs),
		Configs:   len(b.configs),
		Coalesced: len(b.subs) > 1,
		TraceID:   b.id,
		Node:      s.nodeURL(),
	}
	bt.SetOutcome(http.StatusOK, "executed")
	s.rec.Finish(bt)
	for _, c := range b.subs {
		rs := make([]fvcache.MeasureResult, len(c.idx))
		for j, i := range c.idx {
			rs[j] = results[i]
		}
		c.done <- callResult{results: rs, info: info, b: b}
	}
	obs.Log.Debug("batch served", "workload", b.workload, "requests", len(b.subs), "configs", len(b.configs))
}

// execBatch materializes the batch's configurations (resolving
// profile-derived FVTs from the shared profile cache), drives one fused
// replay for all of them, and offers the fresh results to the durable
// cache, whose admission policy decides what becomes durable. The
// handlers already answered every config the cache held, so a config
// only lands here on a miss.
func (s *Server) execBatch(ctx context.Context, b *batch) ([]fvcache.MeasureResult, error) {
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
func (s *Server) probeCache(t *reqTrack, workload string, scale fvcache.Scale, optsFP string, cfgs []ConfigWire) cacheProbe {
	p := cacheProbe{results: make([]fvcache.MeasureResult, len(cfgs))}
	cache := s.cache.Load()
	if cache == nil {
		p.missing = make([]int, len(cfgs))
		for i := range p.missing {
			p.missing[i] = i
		}
		return p
	}
	start := time.Now()
	span := t.tr.Begin("cache_probe", -1)
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
	t.tr.End(span)
	observeStage(stageCacheUS, start, time.Now())
	return p
}

// maxBodyBytes bounds request bodies; a measurement request is a few
// KB even with a long explicit FVT.
const maxBodyBytes = 1 << 20

// handleMeasure serves POST /v1/measure.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.track("measure", w, r).fail(http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	reqTotal.Inc()
	inflightReqs.Set(inflightDelta(1))
	defer inflightReqs.Set(inflightDelta(-1))
	span := obs.Begin("serve:measure")
	defer span.Done()

	t := s.track("measure", w, r)
	start := t.start
	parse := t.tr.Begin("parse", -1)

	if s.draining.Load() {
		t.fail(http.StatusServiceUnavailable, errDraining)
		return
	}
	var req measureWire
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		t.fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
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
		cfgs = append([]ConfigWire{*req.Config}, cfgs...)
	}
	if len(cfgs) == 0 {
		cfgs = []ConfigWire{{}} // default geometry
	}
	for i := range cfgs {
		cfgs[i] = cfgs[i].Normalized()
		if err := cfgs[i].Validate(); err != nil {
			t.fail(http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
	}
	deadline, err := requestDeadline(r, req.DeadlineMS, start, s.opt.DefaultDeadline)
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
	t.tr.End(parse)
	observeStage(stageParseUS, start, time.Now())

	// Fleet ownership: a request whose configs all hash to one peer is
	// proxied there, so each config is computed and cached on exactly
	// one node. Forwarded requests (guard header) always run locally.
	if owner := s.fleetOwner(r, req.Workload, scale, optsFP, cfgs); owner != nil {
		if s.forwardMeasure(t, w, req, deadline, owner) {
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
		s.writeMeasure(t, w, req.Workload, scale, p.results, batchInfoWire{
			Requests:      1,
			Configs:       len(cfgs),
			CacheHits:     p.hits,
			CacheDiskHits: p.diskHits,
			TraceID:       t.tr.ID(),
			Node:          s.nodeURL(),
		}, "hit")
		return
	}

	// Keys whose executor keeps failing are shed here, before their
	// misses can occupy a batch seat; hits above and healthy keys are
	// unaffected.
	brkKey := req.Workload + "|" + scale.String()
	if ok, retryAfter := s.brk.allow(brkKey); !ok {
		breakerOpenTotal.Inc()
		t.failFull(http.StatusServiceUnavailable,
			fmt.Errorf("circuit breaker open for %s after repeated failures", brkKey),
			true, "breaker_open", retryAfter)
		return
	}

	misses := make([]ConfigWire, len(p.missing))
	for j, i := range p.missing {
		misses[j] = cfgs[i]
	}
	wait := t.tr.Begin("batch_wait", -1)
	c, err := s.submit(req.Workload, scale, req.Options, optsFP, misses, deadline)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errDraining) {
			status = http.StatusServiceUnavailable
		}
		t.fail(status, err)
		return
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
		if res.err != nil {
			if res.status == http.StatusGatewayTimeout {
				deadlineExceeded.Inc()
				t.failFull(res.status, res.err, true, "deadline_exceeded", time.Second)
				return
			}
			t.fail(res.status, res.err)
			return
		}
		// Splice the executed misses back between the cached hits, in
		// request order.
		for j, i := range p.missing {
			p.results[i] = res.results[j]
		}
		info := res.info
		info.CacheHits, info.CacheDiskHits = p.hits, p.diskHits
		class := "executed"
		if info.Coalesced {
			class = "coalesced"
		}
		s.writeMeasure(t, w, req.Workload, scale, p.results, info, class)
	case <-deadlineCh:
		// This request's own deadline fired first. The batch keeps
		// running for its seat-mates (its context outlives us); the
		// worker's buffered send still completes.
		t.tr.End(wait)
		deadlineExceeded.Inc()
		t.failFull(http.StatusGatewayTimeout,
			fmt.Errorf("deadline of %s exceeded", time.Since(start).Round(time.Millisecond)),
			true, "deadline_exceeded", time.Second)
	case <-r.Context().Done():
		// Client went away; the worker's buffered send still completes.
		t.tr.End(wait)
		t.fail(http.StatusServiceUnavailable, r.Context().Err())
	}
}

// writeMeasure encodes a successful /v1/measure response and seals the
// request's trace under class.
func (s *Server) writeMeasure(t *reqTrack, w http.ResponseWriter, workload string, scale fvcache.Scale, results []fvcache.MeasureResult, info batchInfoWire, class string) {
	encodeStart := time.Now()
	encode := t.tr.Begin("encode", -1)
	out := measureRespWire{
		Workload: workload,
		Scale:    scale.String(),
		Results:  make([]resultWire, len(results)),
		Batch:    info,
	}
	for i, mr := range results {
		out.Results[i] = toResultWire(mr)
	}
	writeJSON(w, http.StatusOK, out)
	t.tr.End(encode)
	observeStage(stageEncodeUS, encodeStart, time.Now())
	t.finish(http.StatusOK, class)
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
	if ms < 0 {
		return time.Time{}, fmt.Errorf("deadline_ms must be >= 0, got %d", ms)
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
// completed artifact followed by a summary line.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.track("sweep", w, r).fail(http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	reqTotal.Inc()
	span := obs.Begin("serve:sweep")
	defer span.Done()
	t := s.track("sweep", w, r)
	parse := t.tr.Begin("parse", -1)
	if s.draining.Load() {
		t.fail(http.StatusServiceUnavailable, errDraining)
		return
	}
	var req sweepWire
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		t.fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	scale, err := parseScale(req.Scale)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	t.tr.End(parse)
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		reqRejected.Inc()
		t.fail(http.StatusTooManyRequests, errors.New("sweep capacity exhausted, retry later"))
		return
	}

	run := t.tr.Begin("sweep_run", -1)
	defer t.tr.End(run)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := false
	res, err := s.execSweep(r.Context(), fvcache.SweepRequest{
		Artifacts: req.Artifacts,
		Scale:     scale,
		Workers:   req.Workers,
		Markdown:  req.Markdown,
		OnArtifact: func(ar fvcache.ArtifactResult) {
			if !streamed {
				// First line: commit the streaming response now.
				w.Header().Set("Content-Type", "application/x-ndjson")
				streamed = true
			}
			enc.Encode(api.SweepLine{Artifact: &ar})
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	if err != nil {
		if !streamed {
			// Nothing on the wire yet: a clean enveloped status is still
			// possible (unknown artifact and the like are the request's
			// fault).
			t.fail(http.StatusBadRequest, err)
			return
		}
		// The 200 and part of the stream are already on the wire; the
		// failure travels in-band as a terminal NDJSON error line
		// carrying the same envelope a non-2xx body would.
		t.tr.SetError(err.Error())
		enc.Encode(api.SweepLine{Error: &api.Error{
			Message:   err.Error(),
			Reason:    api.ReasonInternal,
			Retryable: false,
			TraceID:   t.tr.ID(),
		}})
		if flusher != nil {
			flusher.Flush()
		}
		t.finish(http.StatusOK, "error")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc.Encode(api.SweepLine{Summary: res})
	t.finish(http.StatusOK, "executed")
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

// writeError renders err with the status's default retry semantics:
// 429/503/504 are retryable (each with a Retry-After), everything else
// is the request's or the server's fault and retrying verbatim cannot
// help.
func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorID(w, status, err, "")
}

// writeErrorID is writeError with the request's trace ID attached to
// the body, so a client can quote the ID against /debug/requests.
func writeErrorID(w http.ResponseWriter, status int, err error, traceID string) {
	var retryAfter time.Duration
	var reason string
	switch {
	case status == http.StatusTooManyRequests:
		retryAfter, reason = time.Second, api.ReasonOverloaded
	case status == http.StatusServiceUnavailable:
		retryAfter, reason = 5*time.Second, api.ReasonDraining
	case status == http.StatusGatewayTimeout:
		retryAfter, reason = time.Second, api.ReasonDeadlineExceeded
	case status == http.StatusMethodNotAllowed:
		reason = api.ReasonMethodNotAllowed
	case status >= 500:
		reason = api.ReasonInternal
	default:
		reason = api.ReasonBadRequest
	}
	retryable := status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
	writeErrorFullID(w, status, err, retryable, reason, retryAfter, traceID)
}

// writeErrorFull is the explicit form: callers that know the cause
// (breaker, deadline) pass their own reason and Retry-After.
func writeErrorFull(w http.ResponseWriter, status int, err error, retryable bool, reason string, retryAfter time.Duration) {
	writeErrorFullID(w, status, err, retryable, reason, retryAfter, "")
}

func writeErrorFullID(w http.ResponseWriter, status int, err error, retryable bool, reason string, retryAfter time.Duration, traceID string) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorWire{Message: err.Error(), Retryable: retryable, Reason: reason, TraceID: traceID})
}

// inflight tracks the in-flight request gauge without a registry
// read-modify-write race (Gauge has no Add).
var inflight atomic.Int64

func inflightDelta(d int64) float64 { return float64(inflight.Add(d)) }
