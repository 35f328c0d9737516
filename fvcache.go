// Public facade of the fvcache module: stable, context-aware entry
// points over the internal simulation engine. External consumers (the
// examples/ programs, the fvcached service, and any future importer)
// use only this surface; the internal/ packages behind it may be
// refactored freely.
//
// The facade exposes five operations:
//
//   - Workloads / LookupWorkload / RegisterWorkload: the synthetic
//     benchmark registry (and the hook for custom workloads).
//   - Profile: a workload's most frequently accessed values (the
//     paper's profile-directed FVT selection).
//   - Measure: one configuration measured over one workload.
//   - MeasureBatch: many configurations fused into a single replay
//     pass over one shared recording (the sweep engine).
//   - MissRateCurves: exact LRU miss-rate curves from one Mattson
//     reuse-distance pass (every power-of-two size at once, no
//     per-point replay).
//   - Sweep: the paper's experiment artifacts (see sweep.go).
//
// Every operation takes a context and checks it every 2^16 accesses
// of a replay or MRC pass; all of them share the process-wide recording and
// profile caches, so repeated calls against the same (workload, scale)
// execute the workload only once.
package fvcache

import (
	"context"
	"fmt"

	"fvcache/internal/cache"
	"fvcache/internal/cacti"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
	"fvcache/internal/mrc"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// Scale selects a workload input size, mirroring SPEC's test, train
// and ref inputs.
type Scale = workload.Scale

// The three input scales.
const (
	Test  = workload.Test
	Train = workload.Train
	Ref   = workload.Ref
)

// ParseScale converts "test", "train" or "ref" to a Scale.
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// EngineVersion identifies the measurement engine's result semantics.
// It participates in durable result-cache keys (internal/resultcache),
// so entries persisted by an older engine are never served as current
// results. Bump it whenever a change can alter measured numbers:
// stats accounting, replay semantics, workload generation, or the
// profile-directed FVT selection.
const EngineVersion = "fvcache-engine/1"

// Config selects a cache hierarchy: main cache geometry, optional FVC
// or victim cache, optional L2, and the design-ablation knobs.
type Config = core.Config

// CacheParams is a conventional cache geometry (size, line, assoc).
type CacheParams = cache.Params

// FVCParams is a frequent value cache geometry.
type FVCParams = fvc.Params

// Stats are the hierarchy counters a measurement produces.
type Stats = core.Stats

// MeasureResult is one configuration's measurement outcome.
type MeasureResult = sim.MeasureResult

// Workload is a runnable synthetic benchmark; implement it against Env
// and register it with RegisterWorkload to measure custom programs.
type Workload = workload.Workload

// Env is the instrumented memory substrate workloads run against.
type Env = memsim.Env

// ValueCount pairs a value with its access frequency.
type ValueCount = trace.ValueCount

// FVTable is a frequent value table: the bidirectional value<->code
// mapping the FVC encodes lines with (paper Figure 7).
type FVTable = fvc.Table

// NewFVTable builds a frequent value table from bits-wide codes over
// the given values, most frequent first.
func NewFVTable(bits int, values []uint32) (*FVTable, error) { return fvc.NewTable(bits, values) }

// MustFVTable is NewFVTable, panicking on error.
func MustFVTable(bits int, values []uint32) *FVTable { return fvc.MustTable(bits, values) }

// MaxFVTValues returns how many values fit a bits-wide code space (one
// code is reserved as the escape).
func MaxFVTValues(bits int) int { return fvc.MaxValues(bits) }

// AccessTimeModel is the CACTI-style access-time model used for the
// paper's equal-access-time comparisons (Figure 9).
type AccessTimeModel = cacti.Model

// DefaultAccessTimes returns the 0.8um access-time model.
func DefaultAccessTimes() AccessTimeModel { return cacti.Default08um() }

// WorkloadInfo describes one registered workload.
type WorkloadInfo struct {
	// Name is the registry key, e.g. "goboard".
	Name string `json:"name"`
	// Analogue names the SPEC95 program the workload mirrors.
	Analogue string `json:"analogue"`
	// Description summarizes what the workload does.
	Description string `json:"description"`
	// FVL reports whether the analogue exhibits frequent value
	// locality.
	FVL bool `json:"fvl"`
}

// Workloads lists every registered workload, sorted by name.
func Workloads() []WorkloadInfo {
	all := workload.All()
	out := make([]WorkloadInfo, len(all))
	for i, w := range all {
		out[i] = WorkloadInfo{Name: w.Name(), Analogue: w.Analogue(), Description: w.Description(), FVL: w.FVL()}
	}
	return out
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, error) { return workload.Get(name) }

// RegisterWorkload adds a custom workload to the registry so the
// measurement entry points (and the fvcached service) can run it by
// name. It panics on a duplicate name.
func RegisterWorkload(w Workload) { workload.Register(w) }

// Options tunes a measurement.
type Options struct {
	// SampleEvery samples the FVC's frequent-value content every this
	// many accesses (0 disables sampling).
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// VerifyValues enables the hierarchy's value-verification asserts.
	VerifyValues bool `json:"verify_values,omitempty"`
	// WarmupAccesses excludes the first N accesses from the reported
	// statistics (the hierarchy still simulates them).
	WarmupAccesses uint64 `json:"warmup_accesses,omitempty"`
	// AuditEvery re-checks the hierarchy's structural invariants every
	// N accesses (0 disables auditing).
	AuditEvery uint64 `json:"audit_every,omitempty"`
	// Deprecated: Parallelism is ignored. Every replay runs as one
	// serial pass over the recording's access columns; results never
	// depended on it. Excluded from JSON so it cannot fragment
	// request-coalescing or result-cache keys.
	Parallelism int `json:"-"`
}

// simOptions maps public options onto the internal measurement
// options, wiring the caller's context and a telemetry label in.
func (o Options) simOptions(ctx context.Context, label string) sim.MeasureOptions {
	return sim.MeasureOptions{
		SampleEvery:    o.SampleEvery,
		VerifyValues:   o.VerifyValues,
		WarmupAccesses: o.WarmupAccesses,
		AuditEvery:     o.AuditEvery,
		Label:          label,
		Ctx:            ctx,
	}
}

// MeasureRequest names one measurement: a workload, an input scale,
// one configuration and the measurement options.
type MeasureRequest struct {
	Workload string
	Scale    Scale
	Config   Config
	Options  Options
}

// Measure runs one configuration over one workload. The workload is
// recorded once into the shared recording cache and measured from the
// replay, so consecutive calls against the same (workload, scale) skip
// re-executing it; results are bit-identical to a live run.
func Measure(ctx context.Context, req MeasureRequest) (MeasureResult, error) {
	w, err := workload.Get(req.Workload)
	if err != nil {
		return MeasureResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return MeasureResult{}, err
	}
	rec, err := sim.Recordings.Get(w, req.Scale)
	if err != nil {
		return MeasureResult{}, err
	}
	return sim.MeasureRecorded(rec, req.Config, req.Options.simOptions(ctx, ""))
}

// MeasureBatchRequest names a fused sweep: many configurations
// measured over one workload in a single replay pass.
type MeasureBatchRequest struct {
	Workload string
	Scale    Scale
	Configs  []Config
	Options  Options
}

// MeasureBatch measures every configuration of the request in
// lockstep over one shared replay of the workload (the fused sweep
// engine): a K-point batch pays the trace traversal once instead of K
// times. Results are returned in Configs order and are bit-identical
// to K separate Measure calls.
func MeasureBatch(ctx context.Context, req MeasureBatchRequest) ([]MeasureResult, error) {
	w, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("fvcache: batch request carries no configurations")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := sim.Recordings.Get(w, req.Scale)
	if err != nil {
		return nil, err
	}
	return sim.MeasureRecordedBatch(rec, req.Configs, req.Options.simOptions(ctx, w.Name()))
}

// ProfileRequest asks for a workload's K most frequently accessed
// values.
type ProfileRequest struct {
	Workload string
	Scale    Scale
	K        int
}

// Profile returns the workload's K most frequently accessed values at
// scale — the FVT a profile-directed compiler/loader would install.
// The returned slice is shared with the process-wide profile cache and
// must not be mutated.
func Profile(ctx context.Context, req ProfileRequest) ([]uint32, error) {
	w, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	if req.K <= 0 {
		return nil, fmt.Errorf("fvcache: profile request wants %d values", req.K)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := sim.Recordings.Get(w, req.Scale); err != nil {
		return nil, err
	}
	return sim.Profiles.TopAccessed(w, req.Scale, req.K), nil
}

// MRCResult is the output of one Mattson reuse-distance pass: exact
// miss-rate curves for every requested set-indexed LRU geometry
// family, every power-of-two size at once.
type MRCResult = mrc.Result

// MRCCurve is one geometry family's curve (fixed set count,
// associativity doubling per point).
type MRCCurve = mrc.Curve

// MRCPoint is one exact (size, associativity, miss count) sample.
type MRCPoint = mrc.Point

// DefaultMRCMaxSizeBytes is the top of the size ladder when a request
// leaves MaxSizeBytes zero.
const DefaultMRCMaxSizeBytes = mrc.DefaultMaxSizeBytes

// MRCRequest asks for a workload's miss-rate curves.
type MRCRequest struct {
	Workload string `json:"workload"`
	Scale    Scale  `json:"scale"`
	// LineBytes is the cache-line size of every modeled geometry; a
	// power of two >= 4. Required.
	LineBytes int `json:"line_bytes"`
	// MaxSizeBytes is the inclusive top of the size ladder; 0 means
	// DefaultMRCMaxSizeBytes.
	MaxSizeBytes int `json:"max_size_bytes,omitempty"`
	// SetCounts selects the set-indexed geometry families (powers of
	// two; 1 = fully associative). Empty means fully associative only.
	SetCounts []int `json:"set_counts,omitempty"`
	// Shards bounds intra-pass parallelism (per-set stack sharding).
	// Excluded from JSON on purpose: it does not change results, so it
	// must not fragment coalescing or result-cache keys.
	Shards int `json:"-"`
}

// Validate checks the request's geometry (the workload name is checked
// at execution time) and returns it normalized: defaults applied,
// SetCounts sorted and deduplicated. The normalized form is canonical
// — the fvcached service derives coalescing and result-cache keys
// from it.
func (r MRCRequest) Validate() (MRCRequest, error) {
	o, err := mrc.Options{
		LineBytes:    r.LineBytes,
		MaxSizeBytes: r.MaxSizeBytes,
		SetCounts:    r.SetCounts,
	}.Normalize()
	if err != nil {
		return r, err
	}
	r.LineBytes = o.LineBytes
	r.MaxSizeBytes = o.MaxSizeBytes
	r.SetCounts = o.SetCounts
	return r, nil
}

// LadderPoints returns how many (size, associativity) points a
// normalized request yields per set-count family; the curve shapes
// are fully determined by the request.
func (r MRCRequest) LadderPoints() []int {
	return mrc.Options{LineBytes: r.LineBytes, MaxSizeBytes: r.MaxSizeBytes, SetCounts: r.SetCounts}.LadderPoints()
}

// MissRateCurves runs one single-pass reuse-distance analysis over the
// workload's shared recording and returns the exact miss-rate curve of
// every requested LRU geometry family — the analytic replacement for a
// K-point size sweep wherever the geometry is pure set-indexed LRU
// (no FVC, no victim cache; those still need Measure/MeasureBatch).
// Miss counts are bit-identical to fused replays of each point.
func MissRateCurves(ctx context.Context, req MRCRequest) (*MRCResult, error) {
	w, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := sim.Recordings.Get(w, req.Scale)
	if err != nil {
		return nil, err
	}
	return mrc.Analyze(rec, mrc.Options{
		LineBytes:    req.LineBytes,
		MaxSizeBytes: req.MaxSizeBytes,
		SetCounts:    req.SetCounts,
		Shards:       req.Shards,
		Ctx:          ctx,
	})
}

// CharacterizeRequest asks for a workload's value-locality profile.
type CharacterizeRequest struct {
	Workload string
	Scale    Scale
	// MRCLineBytes, when positive, additionally computes the
	// workload's fully-associative LRU miss-rate curve at that line
	// size (one extra Mattson pass) into Characterization.MRC.
	MRCLineBytes int
}

// Characterization summarizes a workload's frequent value locality
// (the paper's Section 2 measurements).
type Characterization struct {
	Workload string
	Scale    Scale
	// Accesses is the total number of loads and stores.
	Accesses uint64
	// DistinctValues counts distinct 32-bit values accessed.
	DistinctValues int
	// MRC is the fully-associative LRU miss-rate curve at the request's
	// MRCLineBytes (nil when the request left it zero): how the
	// workload's temporal locality translates to cache sizes, next to
	// the value locality above.
	MRC *MRCResult

	hist *trace.ValueHistogram
}

// CoverageOfTopK returns the fraction of accesses covered by the top
// k values, in [0,1].
func (c *Characterization) CoverageOfTopK(k int) float64 { return c.hist.CoverageOfTopK(k) }

// TopValues returns the k most frequently accessed values with their
// counts, most frequent first.
func (c *Characterization) TopValues(k int) []ValueCount { return c.hist.TopK(k) }

// Characterize measures a workload's frequent value locality from the
// shared recording, executing the workload at most once.
func Characterize(ctx context.Context, req CharacterizeRequest) (*Characterization, error) {
	w, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := sim.Recordings.Get(w, req.Scale)
	if err != nil {
		return nil, err
	}
	hist := trace.NewValueHistogram()
	_, _, vals := rec.AccessColumns()
	hist.AddValues(vals)
	c := &Characterization{
		Workload:       w.Name(),
		Scale:          req.Scale,
		Accesses:       hist.Total(),
		DistinctValues: hist.Distinct(),
		hist:           hist,
	}
	if req.MRCLineBytes > 0 {
		res, err := mrc.Analyze(rec, mrc.Options{LineBytes: req.MRCLineBytes, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		c.MRC = res
	}
	return c, nil
}
