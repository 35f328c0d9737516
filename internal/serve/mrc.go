package serve

// POST /v1/mrc: miss-rate curves from one Mattson reuse-distance pass.
//
// The endpoint mirrors /v1/measure's serving discipline at analytic
// cost: the handler answers durable-cache hits itself, identical
// concurrent misses are coalesced (singleflight on the normalized
// request key — the first request executes, late arrivals wait on the
// same flight), fresh curves are offered back to the cache, the
// per-(workload, scale) circuit breaker and per-request deadlines apply
// to misses, and the response streams one NDJSON line per curve point
// followed by a summary line.
//
// Cache encoding: resultcache stores []fvcache.MeasureResult, so a
// curve is framed into that shape losslessly — entry 0 is a header
// (Loads/Stores totals, DistinctLines in LineFetches) and each further
// entry carries one point's miss count in Stats.Misses. Every other
// coordinate of every point (set count, size, associativity, miss
// ratio) is derived from the normalized request, which is part of the
// cache key, so a warm hit reconstructs the response bit for bit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
)

var (
	mrcRequests  = obs.Default.Counter("serve_mrc_requests_total")
	mrcCoalesced = obs.Default.Counter("serve_mrc_coalesced_total")
	mrcCacheHits = obs.Default.Counter("serve_mrc_cache_hits_total")
)

// The MRC wire types live in the public fvcache/api package; these
// aliases keep the handler's vocabulary.
type (
	// mrcWire is the POST /v1/mrc request body.
	mrcWire = api.MRCRequest
	// mrcPointWire is one streamed curve point.
	mrcPointWire = api.MRCPoint
	// mrcSummaryWire is the trailing NDJSON line.
	mrcSummaryWire = api.MRCSummary
)

// mrcFlight is one in-flight analysis shared by every identical
// concurrent cache miss (singleflight: the first request executes
// immediately and late arrivals join it mid-run).
type mrcFlight struct {
	done     chan struct{}
	requests int
	// id is the flight's trace ID, echoed in every member's summary.
	id string

	// Stage timestamps (zero when the stage never ran).
	started  time.Time
	passDone time.Time // analysis pass finished

	res    *fvcache.MRCResult
	status int
	err    error
}

// mrcCacheKey derives the durable-cache key from a normalized request.
// The geometry is folded into ConfigFP, so curve shape is recoverable
// from the key's request alone.
func mrcCacheKey(req fvcache.MRCRequest) resultcache.Key {
	return resultcache.Key{
		Workload: req.Workload,
		Scale:    req.Scale.String(),
		ConfigFP: fmt.Sprintf("mrc|line:%d|max:%d|sets:%v", req.LineBytes, req.MaxSizeBytes, req.SetCounts),
		Engine:   fvcache.EngineVersion,
	}
}

// encodeMRC frames a curve set into the result cache's entry shape.
func encodeMRC(res *fvcache.MRCResult) []fvcache.MeasureResult {
	out := make([]fvcache.MeasureResult, 0, 1)
	var header fvcache.MeasureResult
	header.Stats.Loads = res.Loads
	header.Stats.Stores = res.Stores
	header.Stats.LineFetches = res.DistinctLines
	out = append(out, header)
	for _, c := range res.Curves {
		for _, p := range c.Points {
			var e fvcache.MeasureResult
			e.Stats.Misses = p.Misses
			out = append(out, e)
		}
	}
	return out
}

// decodeMRC rebuilds the full curve set from a cache entry and the
// normalized request it was stored under. ok is false when the entry's
// shape does not match the request (e.g. an entry admitted under a
// colliding key by an older build); callers then recompute.
func decodeMRC(rs []fvcache.MeasureResult, req fvcache.MRCRequest) (*fvcache.MRCResult, bool) {
	ladder := req.LadderPoints()
	want := 1
	for _, n := range ladder {
		want += n
	}
	if len(rs) != want {
		return nil, false
	}
	header := rs[0]
	res := &fvcache.MRCResult{
		LineBytes:     req.LineBytes,
		Loads:         header.Stats.Loads,
		Stores:        header.Stats.Stores,
		Accesses:      header.Stats.Loads + header.Stats.Stores,
		DistinctLines: header.Stats.LineFetches,
		Curves:        make([]fvcache.MRCCurve, len(req.SetCounts)),
	}
	next := 1
	for i, sets := range req.SetCounts {
		c := fvcache.MRCCurve{Sets: sets, Points: make([]fvcache.MRCPoint, ladder[i])}
		for j := range c.Points {
			misses := rs[next].Stats.Misses
			next++
			p := fvcache.MRCPoint{
				SizeBytes: sets * (1 << uint(j)) * req.LineBytes,
				Assoc:     1 << uint(j),
				Misses:    misses,
			}
			if res.Accesses > 0 {
				p.MissRatio = float64(misses) / float64(res.Accesses)
			}
			c.Points[j] = p
		}
		res.Curves[i] = c
	}
	return res, true
}

// runMRCFlight executes one flight: the analysis pass via the
// (stub-able) execMRC hook, offering fresh curves to the durable cache.
// Runs under the server's base context so one impatient client cannot
// cancel its seat-mates.
func (s *Server) runMRCFlight(f *mrcFlight, key string, req fvcache.MRCRequest) {
	defer func() {
		s.mrcMu.Lock()
		if s.mrcFlights[key] == f {
			delete(s.mrcFlights, key)
		}
		s.mrcMu.Unlock()
		close(f.done)
	}()

	span := obs.Begin("serve:mrc:" + req.Workload)
	defer span.Done()
	f.started = time.Now()

	ctx, cancel := context.WithTimeout(s.baseCtx, s.opt.RequestTimeout)
	defer cancel()

	err := harness.Recover(func() error {
		var execErr error
		f.res, execErr = s.execMRC(ctx, req)
		return execErr
	})
	f.passDone = time.Now()
	s.brk.report(req.Workload+"|"+req.Scale.String(), err == nil || errors.Is(err, context.Canceled))
	if err != nil {
		f.status = execStatus(err)
		f.err = err
		obs.Log.Warn("mrc flight failed", "workload", req.Workload, "err", err.Error())
		return
	}
	if cache := s.cache.Load(); cache != nil {
		cache.Put(mrcCacheKey(req), encodeMRC(f.res))
	}
}

// execMRCPass is the default execMRC hook: one sharded Mattson pass
// through the public facade.
func (s *Server) execMRCPass(ctx context.Context, req fvcache.MRCRequest) (*fvcache.MRCResult, error) {
	req.Shards = s.opt.Workers
	return fvcache.MissRateCurves(ctx, req)
}

// handleMRC serves POST /v1/mrc.
func (s *Server) handleMRC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.track("mrc", w, r).fail(http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	reqTotal.Inc()
	mrcRequests.Inc()
	inflightReqs.Set(inflightDelta(1))
	defer inflightReqs.Set(inflightDelta(-1))

	t := s.track("mrc", w, r)
	start := t.start
	parse := t.tr.Begin("parse", -1)

	if s.draining.Load() {
		t.fail(http.StatusServiceUnavailable, errDraining)
		return
	}
	var req mrcWire
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
	if req.LineBytes == 0 {
		req.LineBytes = 32
	}
	mreq, err := fvcache.MRCRequest{
		Workload: req.Workload, Scale: scale,
		LineBytes: req.LineBytes, MaxSizeBytes: req.MaxSizeBytes, SetCounts: req.SetCounts,
	}.Validate()
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	deadline, err := requestDeadline(r, req.DeadlineMS, start, s.opt.DefaultDeadline)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	ck := mrcCacheKey(mreq)
	t.tr.End(parse)
	observeStage(stageParseUS, start, time.Now())

	// Fleet ownership: the MRC key (workload, scale, geometry) hashes
	// to one owner whose singleflight and durable cache serve it for
	// the whole fleet. Forwarded requests (guard header) run locally.
	if s.fleet != nil {
		if r.Header.Get(api.HeaderForwarded) != "" {
			s.nReceived.Add(1)
			fleetReceivedFwd.Inc()
		} else {
			key := ownershipKey(mreq.Workload, scale, ck.ConfigFP, "")
			switch p := s.fleet.Owner(key); {
			case p.Self():
				s.nOwned.Add(1)
				fleetLocalOwned.Inc()
			case !s.fleet.Available(p):
				s.nFallback.Add(1)
				fleetForwardFallback.Inc()
			default:
				if s.forwardMRC(t, w, req, deadline, p) {
					return
				}
				// Owner unreachable: fall through to the local path.
			}
		}
	}

	// A cached curve set is answered here, before the breaker and the
	// singleflight table: a hit spawns no flight.
	if res := s.probeMRC(t, ck, mreq); res != nil {
		mrcCacheHits.Inc()
		s.writeMRC(t, w, mreq, res, mrcSummaryWire{Requests: 1, CacheHit: true, TraceID: t.tr.ID()}, "hit")
		return
	}

	brkKey := mreq.Workload + "|" + scale.String()
	if ok, retryAfter := s.brk.allow(brkKey); !ok {
		breakerOpenTotal.Inc()
		t.failFull(http.StatusServiceUnavailable,
			fmt.Errorf("circuit breaker open for %s after repeated failures", brkKey),
			true, "breaker_open", retryAfter)
		return
	}

	// Singleflight on the normalized request: the first arrival starts
	// the pass, identical concurrent requests wait on the same flight.
	wait := t.tr.Begin("flight_wait", -1)
	joined := false
	key := fmt.Sprintf("%s|%s|%s", mreq.Workload, scale, ck.ConfigFP)
	s.mrcMu.Lock()
	f := s.mrcFlights[key]
	if f == nil {
		f = &mrcFlight{done: make(chan struct{}), requests: 1, id: s.rec.Mint()}
		s.mrcFlights[key] = f
		s.mrcMu.Unlock()
		go s.runMRCFlight(f, key, mreq)
	} else {
		f.requests++
		joined = true
		s.mrcMu.Unlock()
		mrcCoalesced.Inc()
		coalescedTotal.Inc()
		s.nCoalesced.Add(1)
	}

	var deadlineCh <-chan time.Time
	if !deadline.IsZero() {
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		deadlineCh = tm.C
	}
	select {
	case <-f.done:
		t.tr.Add("analyze", wait, f.started, f.passDone)
		t.tr.End(wait)
	case <-deadlineCh:
		// This request's own deadline fired; the flight keeps running
		// for its seat-mates.
		t.tr.End(wait)
		deadlineExceeded.Inc()
		t.failFull(http.StatusGatewayTimeout,
			fmt.Errorf("deadline of %s exceeded", time.Since(start).Round(time.Millisecond)),
			true, "deadline_exceeded", time.Second)
		return
	case <-r.Context().Done():
		t.tr.End(wait)
		t.fail(http.StatusServiceUnavailable, r.Context().Err())
		return
	}
	if f.err != nil {
		reqErrors.Inc()
		if f.status == http.StatusGatewayTimeout {
			deadlineExceeded.Inc()
			t.failFull(f.status, f.err, true, "deadline_exceeded", time.Second)
			return
		}
		t.fail(f.status, f.err)
		return
	}

	// requests is racy against late joiners only until done closes; by
	// now the flight is removed from the map, so the count is final.
	class := "executed"
	if joined {
		class = "coalesced"
	}
	s.writeMRC(t, w, mreq, f.res, mrcSummaryWire{
		Requests: f.requests, Coalesced: f.requests > 1, TraceID: f.id,
	}, class)
}

// probeMRC returns the curve set the durable cache holds under ck for a
// normalized request, or nil on a miss (or without a cache).
func (s *Server) probeMRC(t *reqTrack, ck resultcache.Key, req fvcache.MRCRequest) *fvcache.MRCResult {
	cache := s.cache.Load()
	if cache == nil {
		return nil
	}
	start := time.Now()
	span := t.tr.Begin("cache_probe", -1)
	defer func() {
		t.tr.End(span)
		observeStage(stageCacheUS, start, time.Now())
	}()
	rs, ok := cache.Get(ck)
	if !ok {
		return nil
	}
	res, ok := decodeMRC(rs, req)
	if !ok {
		return nil
	}
	return res
}

// writeMRC streams a curve set — one NDJSON line per point, then the
// summary, whose execution fields (requests, coalesced, cache_hit,
// trace_id) the caller fills in — and seals the trace under class.
func (s *Server) writeMRC(t *reqTrack, w http.ResponseWriter, req fvcache.MRCRequest, res *fvcache.MRCResult, sum mrcSummaryWire, class string) {
	encodeStart := time.Now()
	encode := t.tr.Begin("encode", -1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	points := 0
	for _, c := range res.Curves {
		for _, p := range c.Points {
			pw := mrcPointWire{Sets: c.Sets, SizeBytes: p.SizeBytes, Assoc: p.Assoc, Misses: p.Misses, MissRatio: p.MissRatio}
			enc.Encode(api.MRCLine{Point: &pw})
			points++
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	sum.Workload = req.Workload
	sum.Scale = req.Scale.String()
	sum.LineBytes = res.LineBytes
	sum.Accesses = res.Accesses
	sum.Loads = res.Loads
	sum.Stores = res.Stores
	sum.DistinctLines = res.DistinctLines
	sum.Curves = len(res.Curves)
	sum.Points = points
	sum.Node = s.nodeURL()
	enc.Encode(api.MRCLine{Summary: &sum})
	t.tr.End(encode)
	observeStage(stageEncodeUS, encodeStart, time.Now())
	t.finish(http.StatusOK, class)
}

// mrcState carries the endpoint's server fields (declared here to keep
// the feature self-contained; embedded in Server).
type mrcState struct {
	mrcMu      sync.Mutex
	mrcFlights map[string]*mrcFlight

	// execMRC runs one analysis pass; tests stub it to control flight
	// timing and count executions. Defaults to execMRCPass.
	execMRC func(ctx context.Context, req fvcache.MRCRequest) (*fvcache.MRCResult, error)
}
