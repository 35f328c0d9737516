package serve

// Fleet owner-forwarding (see DESIGN.md §16): when the server runs as
// a member of a consistent-hash fleet, each (workload, scale, config,
// options) key is owned by exactly one node. A request arriving at a
// non-owner is proxied to the owner through the public client SDK —
// the same SDK external callers use — with the trace ID and deadline
// propagated and a one-hop guard header so a forward is never
// forwarded again. When the owner is unreachable the request degrades
// to local execution (never to the next node on the ring, which would
// let two live nodes both claim the key and split its cache).

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/client"
	"fvcache/internal/fleet"
	"fvcache/internal/obs"
)

var (
	fleetForwardedTotal  = obs.Default.Counter("fleet_forwarded_total")
	fleetForwardFallback = obs.Default.Counter("fleet_forward_fallback_total")
	fleetReceivedFwd     = obs.Default.Counter("fleet_received_forwarded_total")
	fleetLocalOwned      = obs.Default.Counter("fleet_local_owned_total")
	fleetMixedLocal      = obs.Default.Counter("fleet_mixed_local_total")
)

// fleetMetricsTimeout bounds each peer's share of a ?fleet=1 metrics
// fan-out; a slow or dead peer is reported, not waited on.
const fleetMetricsTimeout = 3 * time.Second

// fleetState carries the server's fleet membership: the ring, one
// forwarding client per peer, and the ownership counters /debug/fleet
// reports. All zero on a single-node server.
type fleetState struct {
	fleet *fleet.Fleet
	// fwd maps a peer URL to its forwarding client (retries disabled:
	// an unreachable owner means local fallback, not a retry storm).
	fwd map[string]*client.Client

	// Server-local ownership counters (also exported as fleet_*
	// process metrics), so the e2e tests can assert per instance.
	nForwarded atomic.Uint64 // requests proxied to their owner
	nFallback  atomic.Uint64 // owner unreachable, executed locally
	nReceived  atomic.Uint64 // forwards received from peers
	nOwned     atomic.Uint64 // requests this node owned itself
	nMixed     atomic.Uint64 // multi-config requests spanning owners
}

// initFleet wires the ring and the per-peer forwarding clients.
func (s *Server) initFleet(f *fleet.Fleet) {
	if f == nil {
		return
	}
	s.fleet = f
	s.fwd = make(map[string]*client.Client, f.Size()-1)
	for _, p := range f.Peers() {
		if p.Self() {
			continue
		}
		cli, err := client.New(p.URL(), client.Options{
			NoRetry:       true,
			ForwardedFrom: f.SelfURL(),
			HTTPClient:    &http.Client{Timeout: s.opt.RequestTimeout},
		})
		if err != nil {
			// Peer URLs were validated by fleet.New; an error here means
			// the schemes diverged. Treat the peer as permanently down.
			obs.Log.Warn("fleet: unusable peer", "peer", p.URL(), "err", err.Error())
			continue
		}
		s.fwd[p.URL()] = cli
	}
}

// nodeURL identifies this node in wire responses (BatchInfo.Node,
// MRCSummary.Node); empty when running single-node.
func (s *Server) nodeURL() string {
	if s.fleet == nil {
		return ""
	}
	return s.fleet.SelfURL()
}

// ownershipKey is the ring key of one configuration.
func ownershipKey(workload string, scale fvcache.Scale, cfgFP, optsFP string) string {
	return workload + "|" + scale.String() + "|" + cfgFP + "|opts:" + optsFP
}

// fleetOwner decides whether the request should be proxied and to
// whom. ringKeys are the ring keys of what the request asks for: one
// per measure config (ownershipKey), or the MRC request's single key.
// It returns a non-nil peer only when every key hashes to that same
// available, non-self owner; in every other case it returns nil
// (execute locally) after recording why.
func (s *Server) fleetOwner(r *http.Request, ringKeys []string) *fleet.Peer {
	if s.fleet == nil {
		return nil
	}
	if r.Header.Get(api.HeaderForwarded) != "" {
		// One hop max: a forwarded request executes here even if the
		// membership views disagree about ownership.
		s.nReceived.Add(1)
		fleetReceivedFwd.Inc()
		return nil
	}
	var owner *fleet.Peer
	for i, key := range ringKeys {
		p := s.fleet.Owner(key)
		if i == 0 {
			owner = p
		} else if p != owner {
			// The configs span owners; splitting the batch would cost
			// more than the owner-cache affinity buys. Execute locally.
			s.nMixed.Add(1)
			fleetMixedLocal.Inc()
			return nil
		}
	}
	if owner == nil || owner.Self() {
		s.nOwned.Add(1)
		fleetLocalOwned.Inc()
		return nil
	}
	if !s.fleet.Available(owner) {
		// The owner's breaker is open: skip the forward attempt
		// entirely and serve locally until the cooldown admits a probe.
		s.nFallback.Add(1)
		fleetForwardFallback.Inc()
		return nil
	}
	return owner
}

// forwardCtx derives the forward call's context: the inbound request
// context bounded by the request deadline, with the remaining budget
// restated in the wire body so the owner enforces it too.
func forwardCtx(r *http.Request, deadline time.Time, deadlineMS *int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if deadline.IsZero() {
		return ctx, func() {}
	}
	if ms := time.Until(deadline).Milliseconds(); ms > 0 {
		*deadlineMS = ms
	} else {
		*deadlineMS = 1
	}
	return context.WithDeadline(ctx, deadline)
}

// forwardMeasure proxies a measure request to its owner. Returns true
// when the response (success or the owner's own enveloped error) went
// to the wire; false means the owner was unreachable and the caller
// should execute locally.
func (s *Server) forwardMeasure(t *reqTrack, req api.MeasureRequest, deadline time.Time, owner *fleet.Peer) bool {
	cli := s.fwd[owner.URL()]
	if cli == nil {
		return false
	}
	ctx, cancel := forwardCtx(t.req, deadline, &req.DeadlineMS)
	defer cancel()
	fwd := t.stage("forward", stageForwardUS)
	resp, err := cli.Measure(ctx, req, client.WithTraceID(t.tr.ID()))
	fwd.end()
	if err != nil {
		return s.relayError(t, owner, err)
	}
	s.fleet.ReportSuccess(owner)
	s.nForwarded.Add(1)
	fleetForwardedTotal.Inc()
	t.w.Header().Set(api.HeaderForwardedBy, s.fleet.SelfURL())
	writeJSON(t.w, http.StatusOK, resp)
	t.finish(http.StatusOK, "forwarded")
	return true
}

// forwardMRC proxies an MRC request to its owner, relaying the NDJSON
// stream line by line. Same contract as forwardMeasure; additionally,
// a failure after lines already streamed is relayed in-band as a
// terminal error line (the 200 is on the wire — falling back to local
// execution would splice two streams).
func (s *Server) forwardMRC(t *reqTrack, req api.MRCRequest, deadline time.Time, owner *fleet.Peer) bool {
	cli := s.fwd[owner.URL()]
	if cli == nil {
		return false
	}
	ctx, cancel := forwardCtx(t.req, deadline, &req.DeadlineMS)
	defer cancel()
	fwd := t.stage("forward", stageForwardUS)
	out := t.ndjson(s.fleet.SelfURL())
	summary, err := cli.MRC(ctx, req, func(p api.MRCPoint) error {
		out.line(api.MRCLine{Point: &p})
		return nil
	}, client.WithTraceID(t.tr.ID()))
	fwd.end()
	if err != nil && !out.started {
		return s.relayError(t, owner, err)
	}
	s.nForwarded.Add(1)
	fleetForwardedTotal.Inc()
	if err == nil {
		s.fleet.ReportSuccess(owner)
		out.last(api.MRCLine{Summary: summary})
		t.finish(http.StatusOK, "forwarded")
		return true
	}
	// Mid-stream failure: the envelope travels as a terminal line.
	var ae *api.Error
	if errors.As(err, &ae) && ae.Status != 0 {
		s.fleet.ReportSuccess(owner)
	} else {
		s.fleet.ReportFailure(owner)
		ae = &api.Error{Message: err.Error(), Reason: api.ReasonInternal, TraceID: t.tr.ID()}
	}
	out.fail(ae)
	return true
}

// relayError terminates a forward attempt that returned an error
// before anything streamed. The owner's own enveloped responses
// (including its 429/503 backpressure) relay verbatim — the owner
// answered, so it is healthy; transport-level failures mark the peer
// and send the caller down the local-fallback path.
func (s *Server) relayError(t *reqTrack, owner *fleet.Peer, err error) bool {
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Status == 0 {
		s.fleet.ReportFailure(owner)
		s.nFallback.Add(1)
		fleetForwardFallback.Inc()
		obs.Log.Warn("fleet: forward failed, executing locally",
			"owner", owner.URL(), "err", err.Error())
		return false
	}
	s.fleet.ReportSuccess(owner)
	s.nForwarded.Add(1)
	fleetForwardedTotal.Inc()
	t.w.Header().Set(api.HeaderForwardedBy, s.fleet.SelfURL())
	t.reply(ae.Status, ae)
	return true
}

// fleetCounters is the ownership/forwarding counter block of
// /debug/fleet.
type fleetCounters struct {
	Forwarded         uint64 `json:"forwarded"`
	ForwardFallback   uint64 `json:"forward_fallback"`
	ReceivedForwarded uint64 `json:"received_forwarded"`
	LocalOwned        uint64 `json:"local_owned"`
	MixedLocal        uint64 `json:"mixed_local"`
}

// FleetCounters returns this node's ownership counters (test
// observability, same numbers as /debug/fleet).
func (s *Server) FleetCounters() fleetCounters {
	return fleetCounters{
		Forwarded:         s.nForwarded.Load(),
		ForwardFallback:   s.nFallback.Load(),
		ReceivedForwarded: s.nReceived.Load(),
		LocalOwned:        s.nOwned.Load(),
		MixedLocal:        s.nMixed.Load(),
	}
}

// handleFleet serves GET /debug/fleet: ring layout, per-peer health
// and the node's ownership counters.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeJSON(w, http.StatusOK, struct {
			Enabled bool `json:"enabled"`
		}{false})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled  bool                 `json:"enabled"`
		Self     string               `json:"self"`
		Size     int                  `json:"size"`
		Peers    []fleet.PeerSnapshot `json:"peers"`
		Counters fleetCounters        `json:"counters"`
	}{true, s.fleet.SelfURL(), s.fleet.Size(), s.fleet.Snapshot(), s.FleetCounters()})
}

// handleMetrics serves GET /debug/metrics in three shapes: Prometheus
// text (default), the node's JSON telemetry snapshot (?format=json),
// and the fleet-merged snapshot (?fleet=1) — a fan-out to every peer's
// ?format=json view, folded together with the exact bucket-wise
// histogram merge (obs.MergeSnapshots), so fleet p99s come from merged
// counts, not averaged estimates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("fleet") == "1" {
		s.handleFleetMetrics(w, r)
		return
	}
	if q.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		obs.Default.Snapshot().WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.Default.WritePrometheus(w)
}

func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	merged := obs.Default.Snapshot()
	nodes := []string{s.nodeURL()}
	var failed []string
	if s.fleet != nil {
		type peerSnap struct {
			url  string
			snap *obs.Snapshot
			err  error
		}
		ctx, cancel := context.WithTimeout(r.Context(), fleetMetricsTimeout)
		defer cancel()
		var wg sync.WaitGroup
		results := make([]peerSnap, 0, len(s.fwd))
		var mu sync.Mutex
		for url, cli := range s.fwd {
			wg.Add(1)
			go func(url string, cli *client.Client) {
				defer wg.Done()
				ps := peerSnap{url: url}
				raw, err := cli.MetricsJSON(ctx)
				if err == nil {
					var snap obs.Snapshot
					if uerr := json.Unmarshal(raw, &snap); uerr != nil {
						err = uerr
					} else {
						ps.snap = &snap
					}
				}
				ps.err = err
				mu.Lock()
				results = append(results, ps)
				mu.Unlock()
			}(url, cli)
		}
		wg.Wait()
		for _, ps := range results {
			if ps.err != nil {
				failed = append(failed, ps.url)
				continue
			}
			if err := obs.MergeSnapshots(merged, ps.snap); err != nil {
				failed = append(failed, ps.url)
				continue
			}
			nodes = append(nodes, ps.url)
		}
	}
	// Peer phase trees and request traces are node-local narratives;
	// the merged view carries only additive metrics plus this node's.
	writeJSON(w, http.StatusOK, struct {
		Fleet    bool          `json:"fleet"`
		Nodes    []string      `json:"nodes"`
		Failed   []string      `json:"failed_nodes,omitempty"`
		Snapshot *obs.Snapshot `json:"snapshot"`
	}{true, nodes, failed, merged})
}
