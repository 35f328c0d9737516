// Package api is the canonical wire contract of the fvcached service:
// the JSON request/response types of every /v1/ endpoint, the shared
// error envelope, and the config fingerprint helpers that identify a
// configuration across coalesced batches, the durable result cache,
// and the consistent-hash fleet.
//
// The package is versioned by Version (the /v1/ path prefix every
// endpoint lives under). It is consumed identically by three kinds of
// caller:
//
//   - external clients, via the fvcache/client SDK;
//   - the load generator cmd/serveload;
//   - the fleet itself — node-to-node owner forwarding inside
//     internal/serve speaks exactly these types through the same SDK.
//
// internal/serve aliases these types rather than declaring its own, so
// there is exactly one definition of the wire format in the tree.
package api

import (
	"fmt"
	"strings"

	"fvcache"
)

// Version is the wire-format version: the path prefix ("/v1") under
// which every endpoint in this package is served. Incompatible wire
// changes bump it.
const Version = "v1"

// Config is the JSON representation of one cache configuration.
// Zero-valued geometry fields take the paper's defaults (16KB main
// cache, 32-byte lines, direct mapped, 3-bit FVC codes), so the
// minimal useful request body is `{"workload":"goboard"}`.
type Config struct {
	// MainBytes is the main cache size in bytes (default 16384).
	MainBytes int `json:"main_bytes,omitempty"`
	// LineBytes is the line size in bytes (default 32).
	LineBytes int `json:"line_bytes,omitempty"`
	// Assoc is the main cache associativity (default 1, the DMC).
	Assoc int `json:"assoc,omitempty"`

	// FVCEntries attaches a frequent value cache (0 = none).
	FVCEntries int `json:"fvc_entries,omitempty"`
	// FVCBits is the FVC code width (default 3 when FVCEntries > 0).
	FVCBits int `json:"fvc_bits,omitempty"`
	// FrequentValues is an explicit frequent value table. When empty
	// (and OnlineFVTEvery is 0) the service derives the table from the
	// workload's profile, the paper's profile-directed selection.
	FrequentValues []uint32 `json:"frequent_values,omitempty"`
	// OnlineFVTEvery switches to online FVT identification, re-deriving
	// the table from a Space-Saving sketch every N accesses.
	OnlineFVTEvery uint64 `json:"online_fvt_every,omitempty"`

	// VictimEntries attaches a victim cache (mutually exclusive with
	// the FVC).
	VictimEntries int `json:"victim_entries,omitempty"`

	// L2Bytes places a unified L2 of this size behind the L1 level.
	L2Bytes int `json:"l2_bytes,omitempty"`
	// L2Assoc is the L2 associativity (default 4 when L2Bytes > 0).
	L2Assoc int `json:"l2_assoc,omitempty"`

	// Ablation knobs (zero values are the paper's design).
	NoWriteMissAllocate bool `json:"no_write_miss_allocate,omitempty"`
	SkipEmptyFootprints bool `json:"skip_empty_footprints,omitempty"`
}

// Normalized returns the config with defaults applied.
func (c Config) Normalized() Config {
	if c.MainBytes == 0 {
		c.MainBytes = 16 << 10
	}
	if c.LineBytes == 0 {
		c.LineBytes = 32
	}
	if c.Assoc == 0 {
		c.Assoc = 1
	}
	if c.FVCEntries > 0 && c.FVCBits == 0 {
		c.FVCBits = 3
	}
	if c.L2Bytes > 0 && c.L2Assoc == 0 {
		c.L2Assoc = 4
	}
	return c
}

// NeedsProfile reports whether the service must derive the config's
// frequent value table from the workload's profile.
func (c Config) NeedsProfile() bool {
	return c.FVCEntries > 0 && len(c.FrequentValues) == 0 && c.OnlineFVTEvery == 0
}

// Validate checks a normalized config's geometry without resolving
// profile-derived tables (those are materialized at execution time).
func (c Config) Validate() error {
	main := fvcache.CacheParams{SizeBytes: c.MainBytes, LineBytes: c.LineBytes, Assoc: c.Assoc}
	if err := main.Validate(); err != nil {
		return err
	}
	if c.FVCEntries > 0 {
		if c.VictimEntries > 0 {
			return fmt.Errorf("fvc and victim cache are mutually exclusive")
		}
		p := fvcache.FVCParams{Entries: c.FVCEntries, LineBytes: c.LineBytes, Bits: c.FVCBits}
		if err := p.Validate(); err != nil {
			return err
		}
		if len(c.FrequentValues) > fvcache.MaxFVTValues(c.FVCBits) {
			return fmt.Errorf("%d frequent values exceed the %d-bit code space (max %d)",
				len(c.FrequentValues), c.FVCBits, fvcache.MaxFVTValues(c.FVCBits))
		}
	}
	if c.VictimEntries < 0 {
		return fmt.Errorf("victim_entries must be >= 0")
	}
	if c.L2Bytes > 0 {
		l2 := fvcache.CacheParams{SizeBytes: c.L2Bytes, LineBytes: c.LineBytes, Assoc: c.L2Assoc}
		if err := l2.Validate(); err != nil {
			return err
		}
		if c.L2Bytes < c.MainBytes {
			return fmt.Errorf("l2_bytes (%d) must be >= main_bytes (%d)", c.L2Bytes, c.MainBytes)
		}
	}
	return nil
}

// Fingerprint is a stable identity for a normalized config. It
// deduplicates configurations across coalesced requests, keys the
// durable result cache (together with workload, scale and options),
// and places the config's results on exactly one node of a
// consistent-hash fleet. Two clients asking for the same geometry
// (including "profile-derived FVT", before the values are known)
// share one identity.
func (c Config) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "m%d/%d/%d", c.MainBytes, c.LineBytes, c.Assoc)
	if c.FVCEntries > 0 {
		fmt.Fprintf(&sb, " f%d/%db o%d", c.FVCEntries, c.FVCBits, c.OnlineFVTEvery)
		if len(c.FrequentValues) > 0 {
			fmt.Fprintf(&sb, " v%v", c.FrequentValues)
		} else if c.OnlineFVTEvery == 0 {
			sb.WriteString(" vprofile")
		}
	}
	if c.VictimEntries != 0 {
		fmt.Fprintf(&sb, " vc%d", c.VictimEntries)
	}
	if c.L2Bytes > 0 {
		fmt.Fprintf(&sb, " l2:%d/%d", c.L2Bytes, c.L2Assoc)
	}
	if c.NoWriteMissAllocate {
		sb.WriteString(" nowma")
	}
	if c.SkipEmptyFootprints {
		sb.WriteString(" skipempty")
	}
	return sb.String()
}

// Materialize maps the wire config onto the core configuration.
// values is the profile-derived frequent value table when
// NeedsProfile, ignored otherwise. It reads exactly the fields
// Fingerprint encodes, so configs sharing a fingerprint materialize
// identically (FuzzConfigFingerprint); OnlineFVTEvery only matters
// with an FVC, so it is dropped without one.
func (c Config) Materialize(values []uint32) fvcache.Config {
	cfg := fvcache.Config{
		Main:                fvcache.CacheParams{SizeBytes: c.MainBytes, LineBytes: c.LineBytes, Assoc: c.Assoc},
		VictimEntries:       c.VictimEntries,
		NoWriteMissAllocate: c.NoWriteMissAllocate,
		SkipEmptyFootprints: c.SkipEmptyFootprints,
	}
	if c.FVCEntries > 0 {
		cfg.FVC = &fvcache.FVCParams{Entries: c.FVCEntries, LineBytes: c.LineBytes, Bits: c.FVCBits}
		cfg.OnlineFVTEvery = c.OnlineFVTEvery
		switch {
		case len(c.FrequentValues) > 0:
			cfg.FrequentValues = c.FrequentValues
		case c.OnlineFVTEvery == 0:
			cfg.FrequentValues = values
		}
	}
	if c.L2Bytes > 0 {
		cfg.L2 = &fvcache.CacheParams{SizeBytes: c.L2Bytes, LineBytes: c.LineBytes, Assoc: c.L2Assoc}
	}
	return cfg
}

// MeasureRequest is the POST /v1/measure request body.
type MeasureRequest struct {
	Workload string `json:"workload"`
	// Scale is "test", "train" or "ref" (default "test").
	Scale string `json:"scale,omitempty"`
	// Config carries a single configuration, Configs one or many; a
	// request may use either (or neither, for the default geometry).
	Config  *Config         `json:"config,omitempty"`
	Configs []Config        `json:"configs,omitempty"`
	Options fvcache.Options `json:"options,omitempty"`
	// DeadlineMS bounds this request in milliseconds (also settable via
	// the ?deadline_ms= query parameter, which wins when both are
	// present). 0 means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Result is one configuration's measurement in a response.
type Result struct {
	Stats        fvcache.Stats `json:"stats"`
	Accesses     uint64        `json:"accesses"`
	MissRate     float64       `json:"miss_rate"`
	TrafficBytes uint64        `json:"traffic_bytes"`
	FVCFreqFrac  float64       `json:"fvc_freq_frac,omitempty"`
	FVCOccupancy float64       `json:"fvc_occupancy,omitempty"`
}

// BatchInfo tells a client how its request was executed — the
// coalescing and cache observability the serving benchmark classifies
// outcomes from.
//
// The server probes the durable result cache before coalescing, so
// only a request's cache misses join a fused batch execution. A
// request the cache answers in full runs no batch at all and reports
// itself as a batch of one: requests 1, configs n (the request's own
// config count), coalesced false, cache_hits n, and trace_id set to
// the request's own ID. A request is therefore a full hit exactly when
// cache_hits equals the number of configs it sent.
type BatchInfo struct {
	// Requests is how many client requests this fused execution served
	// (1 for a request answered without a batch).
	Requests int `json:"requests"`
	// Configs is how many distinct member systems the batch drove — the
	// request's cache misses and those of its batch-mates — or, for a
	// request answered without a batch, how many configs it sent.
	Configs int `json:"configs"`
	// Coalesced is true when the request shared its execution with at
	// least one other request.
	Coalesced bool `json:"coalesced"`
	// CacheHits is how many of this request's configs were served from
	// the durable result cache instead of being re-simulated, counted
	// per request (a config repeated in the request counts each time);
	// CacheDiskHits is the subset faulted in from the disk tier.
	CacheHits     int `json:"cache_hits,omitempty"`
	CacheDiskHits int `json:"cache_disk_hits,omitempty"`
	// TraceID is the fused batch's trace ID, shared by every coalesced
	// member of the execution — clients correlate batch-mates (and the
	// batch's stage timeline at /debug/requests) through it. A request
	// answered without a batch carries its own request ID here.
	TraceID string `json:"trace_id,omitempty"`
	// Node identifies the fleet node that executed the batch (its base
	// URL); empty on a single-node server. Under owner-forwarding this
	// is the config fingerprint's owner, whichever node the client hit.
	Node string `json:"node,omitempty"`
}

// MeasureResponse is the POST /v1/measure response body.
type MeasureResponse struct {
	Workload string    `json:"workload"`
	Scale    string    `json:"scale"`
	Results  []Result  `json:"results"`
	Batch    BatchInfo `json:"batch"`

	// ForwardedBy is the node that proxied this response to its owner
	// (from the X-Fvcache-Forwarded-By header), set by the client SDK;
	// empty when the serving node owned the request itself.
	ForwardedBy string `json:"-"`
}

// SweepRequest is the POST /v1/sweep request body.
type SweepRequest struct {
	// Artifacts lists artifact IDs (empty = the full suite).
	Artifacts []string `json:"artifacts,omitempty"`
	Scale     string   `json:"scale,omitempty"`
	Markdown  bool     `json:"markdown,omitempty"`
	// Workers bounds per-artifact simulation parallelism.
	Workers int `json:"workers,omitempty"`
}

// SweepLine is one NDJSON line of a /v1/sweep stream: exactly one
// field is set per line — a completed artifact, the trailing summary,
// or (when the sweep fails after streaming began and the 200 status is
// already on the wire) a terminal error envelope.
type SweepLine struct {
	Artifact *fvcache.ArtifactResult `json:"artifact,omitempty"`
	Summary  *fvcache.SweepResult    `json:"summary,omitempty"`
	Error    *Error                  `json:"error_line,omitempty"`
}

// MRCRequest is the POST /v1/mrc request body.
type MRCRequest struct {
	Workload string `json:"workload"`
	// Scale is "test", "train" or "ref" (default "test").
	Scale string `json:"scale,omitempty"`
	// LineBytes is the modeled line size (default 32).
	LineBytes int `json:"line_bytes,omitempty"`
	// MaxSizeBytes is the top of the size ladder (default 1MiB).
	MaxSizeBytes int `json:"max_size_bytes,omitempty"`
	// SetCounts selects the set-indexed LRU families (powers of two,
	// 1 = fully associative; default [1]).
	SetCounts []int `json:"set_counts,omitempty"`
	// DeadlineMS bounds this request in milliseconds (the
	// ?deadline_ms= query parameter wins when both are present).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MRCPoint is one streamed curve point of a /v1/mrc response.
type MRCPoint struct {
	Sets      int     `json:"sets"`
	SizeBytes int     `json:"size_bytes"`
	Assoc     int     `json:"assoc"`
	Misses    uint64  `json:"misses"`
	MissRatio float64 `json:"miss_ratio"`
}

// MRCSummary is the trailing NDJSON line of a /v1/mrc response.
type MRCSummary struct {
	Workload      string `json:"workload"`
	Scale         string `json:"scale"`
	LineBytes     int    `json:"line_bytes"`
	Accesses      uint64 `json:"accesses"`
	Loads         uint64 `json:"loads"`
	Stores        uint64 `json:"stores"`
	DistinctLines uint64 `json:"distinct_lines"`
	Curves        int    `json:"curves"`
	Points        int    `json:"points"`
	// Requests is how many coalesced clients this flight served;
	// Coalesced is true when it was more than one.
	Requests  int  `json:"requests"`
	Coalesced bool `json:"coalesced"`
	// CacheHit is true when the curve came from the durable result
	// cache instead of a fresh analysis pass. A hit is answered before
	// any flight opens, so it reports requests 1, coalesced false, and
	// its own request ID as trace_id.
	CacheHit bool `json:"cache_hit"`
	// TraceID is the flight's trace ID, shared by every coalesced
	// member of the singleflight (the request's own ID on a cache hit).
	TraceID string `json:"trace_id,omitempty"`
	// Node identifies the fleet node whose analysis pass (or cache)
	// produced the curves; empty on a single-node server.
	Node string `json:"node,omitempty"`

	// ForwardedBy is the node that proxied this response to its owner,
	// set by the client SDK from the response headers.
	ForwardedBy string `json:"-"`
}

// MRCLine is one NDJSON line of a /v1/mrc stream: exactly one field is
// set per line.
type MRCLine struct {
	Point   *MRCPoint   `json:"point,omitempty"`
	Summary *MRCSummary `json:"summary,omitempty"`
	Error   *Error      `json:"error_line,omitempty"`
}
