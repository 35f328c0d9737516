// Package mrc computes miss-rate curves by single-pass Mattson
// reuse-distance analysis over a recorded trace.
//
// A K-point cache-size sweep replayed config-by-config costs O(K·N)
// even with the fused batch engine; one Mattson pass costs O(N·log D)
// (D = deepest reuse distance on the ladder) and yields the miss count
// of EVERY power-of-two LRU size at once. The engine reads one input,
// the recording's resident access columns, through two loops over
// address slices: the fused direct-mapped table loop (MaxAssoc == 1,
// see dmtable.go) and the set-range stack loop, which feeds per-set
// LRU stacks organized as power-of-two depth banks (see stack.go).
//
// Exactness contract: the curves are bit-identical in miss counts to a
// fused replay of the same geometry whenever the geometry is pure
// set-indexed LRU with write-allocate on both loads and stores — i.e.
// the plain DMC / set-associative configurations of this repo's
// core.System with no FVC side cache and no victim buffer. Frequent-
// value compression and victim paths change line residency in ways a
// stack model cannot capture; those stay on the replay engine.
package mrc

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// DefaultMaxSizeBytes is the top of the size ladder when Options
// leaves it zero: 1 MiB, comfortably past every cache geometry the
// paper's figures sweep.
const DefaultMaxSizeBytes = 1 << 20

// Options configures one analysis pass.
type Options struct {
	// LineBytes is the cache-line size of every modeled geometry; a
	// power of two >= trace.WordBytes. Required.
	LineBytes int
	// MaxSizeBytes is the inclusive top of the size ladder; 0 means
	// DefaultMaxSizeBytes.
	MaxSizeBytes int
	// SetCounts lists the set-indexed geometries to model, one exact
	// per-set curve each; every entry must be a power of two with
	// SetCount*LineBytes <= MaxSizeBytes. 1 is the fully-associative
	// model. Empty means []int{1}. Duplicates are collapsed.
	SetCounts []int
	// MaxAssoc, when > 0, caps every curve's associativity ladder at
	// this power of two. MaxAssoc == 1 asks only for the direct-mapped
	// point of each geometry, which selects the last-line-per-set fast
	// path (see dmtable.go) — the form the experiments' DMC size sweeps
	// use. 0 means the full ladder up to MaxSizeBytes.
	MaxAssoc int
	// Shards bounds the stack loop's parallelism: each model's sets are
	// split into up to Shards independent set ranges, fanned out over
	// harness.Map, each range walking the resident address column.
	// <= 1 means one task per model, run one at a time. Direct-mapped
	// passes ignore it. This is wired to the -workers flag.
	Shards int
	// Ctx, when non-nil, cancels the pass at the next segment boundary
	// (every 2^16 accesses).
	Ctx context.Context
}

// Point is one size on a curve: the exact miss count of an LRU cache
// with the curve's set count at associativity Assoc.
type Point struct {
	SizeBytes int     `json:"size_bytes"`
	Assoc     int     `json:"assoc"`
	Misses    uint64  `json:"misses"`
	MissRatio float64 `json:"miss_ratio"`
}

// Curve is the exact miss-rate curve of one set-indexed LRU geometry
// family: Sets sets, associativity doubling per point.
type Curve struct {
	Sets   int     `json:"sets"`
	Points []Point `json:"points"`
}

// Result is the full output of one analysis pass.
type Result struct {
	LineBytes     int     `json:"line_bytes"`
	Accesses      uint64  `json:"accesses"`
	Loads         uint64  `json:"loads"`
	Stores        uint64  `json:"stores"`
	DistinctLines uint64  `json:"distinct_lines"`
	Curves        []Curve `json:"curves"`
}

// ladderBanks returns how many associativity points the ladder holds
// for a geometry with sets sets: assoc 1,2,4,... while
// sets*assoc*lineBytes <= maxSize, capped at maxAssoc when it is set.
func ladderBanks(sets, lineBytes, maxSize, maxAssoc int) int {
	n := 0
	for size := sets * lineBytes; size <= maxSize && size > 0; size <<= 1 {
		n++
		if maxAssoc > 0 && 1<<uint(n) > maxAssoc {
			break
		}
	}
	return n
}

// Normalize validates the options and returns them with defaults
// applied and SetCounts sorted and deduplicated — the canonical form
// callers can derive coalescing and cache keys from.
func (o Options) Normalize() (Options, error) {
	if o.LineBytes < trace.WordBytes || o.LineBytes&(o.LineBytes-1) != 0 {
		return o, fmt.Errorf("mrc: LineBytes %d must be a power of two >= %d", o.LineBytes, trace.WordBytes)
	}
	if o.MaxSizeBytes == 0 {
		o.MaxSizeBytes = DefaultMaxSizeBytes
	}
	if o.MaxSizeBytes < o.LineBytes {
		return o, fmt.Errorf("mrc: MaxSizeBytes %d below one line (%d)", o.MaxSizeBytes, o.LineBytes)
	}
	if o.MaxAssoc < 0 || (o.MaxAssoc > 0 && o.MaxAssoc&(o.MaxAssoc-1) != 0) {
		return o, fmt.Errorf("mrc: MaxAssoc %d must be 0 (unbounded) or a power of two", o.MaxAssoc)
	}
	if len(o.SetCounts) == 0 {
		o.SetCounts = []int{1}
	} else {
		o.SetCounts = slices.Clone(o.SetCounts)
		slices.Sort(o.SetCounts)
		o.SetCounts = slices.Compact(o.SetCounts)
	}
	for _, s := range o.SetCounts {
		if s < 1 || s&(s-1) != 0 {
			return o, fmt.Errorf("mrc: set count %d must be a power of two", s)
		}
		if s*o.LineBytes > o.MaxSizeBytes {
			return o, fmt.Errorf("mrc: set count %d needs %d bytes at assoc 1, above MaxSizeBytes %d",
				s, s*o.LineBytes, o.MaxSizeBytes)
		}
	}
	return o, nil
}

// LadderPoints returns how many (size, assoc) points the normalized
// options yield per set count — the curve shapes are fully determined
// by the options, which lets cached results be decoded without storing
// geometry.
func (o Options) LadderPoints() []int {
	out := make([]int, len(o.SetCounts))
	for i, s := range o.SetCounts {
		out[i] = ladderBanks(s, o.LineBytes, o.MaxSizeBytes, o.MaxAssoc)
	}
	return out
}

// model is one set-count geometry family of a pass.
type model struct {
	sets  int
	banks int
}

// shardTask is one unit of parallel work: one model's set range
// [lo, hi).
type shardTask struct {
	m      model
	lo, hi uint32
}

// shardCount returns how many set-range shards model m splits into.
func shardCount(m model, shards int) int {
	if shards > m.sets {
		return m.sets
	}
	return shards
}

// shardTasks splits every model into near-equal set ranges, grouped by
// model in order.
func shardTasks(models []model, shards int) []shardTask {
	var tasks []shardTask
	for _, m := range models {
		n := shardCount(m, shards)
		per := m.sets / n
		extra := m.sets % n
		lo := uint32(0)
		for k := 0; k < n; k++ {
			hi := lo + uint32(per)
			if k < extra {
				hi++
			}
			tasks = append(tasks, shardTask{m: m, lo: lo, hi: hi})
			lo = hi
		}
	}
	return tasks
}

// bucketed is the per-model result either engine produces: cumulative
// hit counts per power-of-two associativity bucket plus the model's
// first-touch count. *stack and *dmTable implement it.
type bucketed interface {
	hits(j int) uint64
	coldCount() uint64
}

// Analyze runs one reuse-distance pass over rec's resident access
// columns and returns the exact miss-rate curve of every requested
// geometry family. The recording is not mutated and may be shared.
// MaxAssoc==1 passes run the fused direct-mapped table loop; every
// other pass runs the set-range stack loop.
func Analyze(rec *trace.Recording, opt Options) (*Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, err
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	obs.MRCPasses.Inc()
	lineShift := uint(bits.TrailingZeros(uint(opt.LineBytes)))
	models := newModels(opt)
	ops, addrs, _ := rec.AccessColumns()
	var counts []bucketed
	if opt.MaxAssoc == 1 {
		counts, err = runRawDM(ctx, addrs, models, lineShift)
	} else {
		counts, err = runStacks(ctx, addrs, models, lineShift, max(opt.Shards, 1))
	}
	if err != nil {
		return nil, err
	}
	var stores uint64
	for _, op := range ops {
		if op == trace.Store {
			stores++
		}
	}
	return assemble(opt, models, counts, uint64(len(addrs)), stores), nil
}

// segmentAccesses bounds how many accesses one loop step covers: the
// cancellation and telemetry granularity of both passes.
const segmentAccesses = 1 << 16

// eachSegment calls fn on consecutive segmentAccesses-long slices of
// addrs, checking ctx before each one.
func eachSegment(ctx context.Context, addrs []uint32, fn func(seg []uint32)) error {
	for lo := 0; lo < len(addrs); lo += segmentAccesses {
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(addrs[lo:min(lo+segmentAccesses, len(addrs))])
	}
	return nil
}

// newModels expands normalized options into per-set-count models.
func newModels(opt Options) []model {
	models := make([]model, len(opt.SetCounts))
	for i, s := range opt.SetCounts {
		models[i] = model{sets: s, banks: ladderBanks(s, opt.LineBytes, opt.MaxSizeBytes, opt.MaxAssoc)}
	}
	return models
}

// assemble builds the Result from either engine's per-model counts.
func assemble(opt Options, models []model, counts []bucketed, accesses, stores uint64) *Result {
	res := &Result{
		LineBytes: opt.LineBytes,
		Accesses:  accesses,
		Stores:    stores,
		Loads:     accesses - stores,
		Curves:    make([]Curve, len(models)),
	}
	// A line is a first touch exactly once regardless of set indexing,
	// so any model's cold count is the distinct-line count.
	res.DistinctLines = counts[0].coldCount()
	for i, m := range models {
		c := Curve{Sets: m.sets, Points: make([]Point, m.banks)}
		for j := 0; j < m.banks; j++ {
			misses := accesses - counts[i].hits(j)
			p := Point{
				SizeBytes: m.sets * (1 << uint(j)) * opt.LineBytes,
				Assoc:     1 << uint(j),
				Misses:    misses,
			}
			if accesses > 0 {
				p.MissRatio = float64(misses) / float64(accesses)
			}
			c.Points[j] = p
		}
		res.Curves[i] = c
	}
	return res
}

// runStacks fans each model's set ranges out over harness.Map, one
// task per (model, set range); shards == 1 gives one task per model.
// Every task walks the whole (immutable, shared) address column and
// keeps only the accesses of its own sets. The sets partition
// exactly, so the merged histograms do not depend on the shard count.
func runStacks(ctx context.Context, addrs []uint32, models []model, lineShift uint, shards int) ([]bucketed, error) {
	tasks := shardTasks(models, shards)
	parts, err := harness.Map(ctx, len(tasks), shards,
		func(ctx context.Context, ti int) (*stack, error) {
			t := tasks[ti]
			s := newStack(int(t.hi-t.lo), t.m.banks)
			mask := uint32(t.m.sets - 1)
			err := eachSegment(ctx, addrs, func(seg []uint32) {
				obs.MRCLines.Add(s.feed(seg, lineShift, mask, t.lo, t.hi))
			})
			return s, err
		})
	if err != nil {
		return nil, err
	}
	// Merge each model's shard histograms back into one stack per
	// model, in task order (tasks are grouped by model).
	counts := make([]bucketed, 0, len(models))
	ti := 0
	for _, m := range models {
		n := shardCount(m, shards)
		agg := parts[ti]
		for k := 1; k < n; k++ {
			agg.merge(parts[ti+k])
		}
		ti += n
		counts = append(counts, agg)
	}
	return counts, nil
}
