package serve

// POST /v1/mrc: miss-rate curves from one Mattson reuse-distance pass.
//
// The endpoint shares /v1/measure's serving path: the handler answers
// durable-cache hits itself, and a miss opens or joins an MRC batch
// keyed by the normalized request in the same pending table, which
// goes through the same queue, worker pool, breaker, batch deadline
// and batch trace; the exec hook runs one sharded analysis pass for it
// and offers the fresh curves back to the cache. The response streams
// one NDJSON line per curve point followed by a summary line.
//
// Cache encoding: resultcache stores []fvcache.MeasureResult, so a
// curve is framed into that shape losslessly (the same framing carries
// an executed batch's curves to its members) — entry 0 is a header
// (Loads/Stores totals, DistinctLines in LineFetches) and each further
// entry carries one point's miss count in Stats.Misses. Every other
// coordinate of every point (set count, size, associativity, miss
// ratio) is derived from the normalized request, which is part of the
// cache key, so a warm hit reconstructs the response bit for bit.

import (
	"errors"
	"fmt"
	"net/http"

	"fvcache"
	"fvcache/api"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
)

var (
	mrcRequests  = obs.Default.Counter("serve_mrc_requests_total")
	mrcCacheHits = obs.Default.Counter("serve_mrc_cache_hits_total")
)

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

// handleMRC serves POST /v1/mrc.
func (s *Server) handleMRC(w http.ResponseWriter, r *http.Request) {
	var req api.MRCRequest
	t, parse := s.open("mrc", w, r, &req)
	if t == nil {
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
	deadline, err := requestDeadline(r, req.DeadlineMS, t.start, s.opt.DefaultDeadline)
	if err != nil {
		t.fail(http.StatusBadRequest, err)
		return
	}
	ck := mrcCacheKey(mreq)
	parse.end()

	// Fleet ownership: the MRC key (workload, scale, geometry) hashes
	// to one owner whose batches and durable cache serve it for the
	// whole fleet. Forwarded requests (guard header) run locally.
	if owner := s.fleetOwner(r, []string{ownershipKey(mreq.Workload, scale, ck.ConfigFP, "")}); owner != nil {
		if s.forwardMRC(t, req, deadline, owner) {
			return
		}
		// Owner unreachable: fall through to the local path.
	}

	// A cached curve set is answered here, before the breaker and the
	// pending table: a hit opens no batch.
	if res := s.probeMRC(t, ck, mreq); res != nil {
		mrcCacheHits.Inc()
		s.writeMRC(t, mreq, res, api.MRCSummary{Requests: 1, CacheHit: true, TraceID: t.tr.ID()}, "hit")
		return
	}

	res, ok := s.await(t, &batch{
		key:      "mrc|" + mreq.Workload + "|" + scale.String() + "|" + ck.ConfigFP,
		workload: mreq.Workload, scale: scale, mrc: &mreq,
	}, nil, deadline)
	if !ok {
		return
	}
	curves, ok := decodeMRC(res.results, mreq)
	if !ok {
		t.fail(http.StatusInternalServerError, errors.New("analysis result does not match the request's curve shape"))
		return
	}
	s.writeMRC(t, mreq, curves, api.MRCSummary{
		Requests: res.info.Requests, Coalesced: res.info.Coalesced, TraceID: res.info.TraceID,
	}, execClass(res.info.Coalesced))
}

// probeMRC returns the curve set the durable cache holds under ck for a
// normalized request, or nil on a miss (or without a cache).
func (s *Server) probeMRC(t *reqTrack, ck resultcache.Key, req fvcache.MRCRequest) *fvcache.MRCResult {
	cache := s.cache.Load()
	if cache == nil {
		return nil
	}
	defer t.stage("cache_probe", stageCacheUS).end()
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
func (s *Server) writeMRC(t *reqTrack, req fvcache.MRCRequest, res *fvcache.MRCResult, sum api.MRCSummary, class string) {
	encode := t.stage("encode", stageEncodeUS)
	out := t.ndjson("")
	points := 0
	for _, c := range res.Curves {
		for _, p := range c.Points {
			out.line(api.MRCLine{Point: &api.MRCPoint{Sets: c.Sets, SizeBytes: p.SizeBytes, Assoc: p.Assoc, Misses: p.Misses, MissRatio: p.MissRatio}})
			points++
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
	out.last(api.MRCLine{Summary: &sum})
	encode.end()
	t.finish(http.StatusOK, class)
}
