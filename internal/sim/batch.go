package sim

import (
	"context"
	"fmt"
	"time"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// MeasureRecordedBatch is the measurement driver every replayed
// measurement goes through: it replays rec exactly once, driving one
// core.System per configuration in lockstep through a core.SystemSet,
// and returns per-configuration results in cfgs order. One column
// decode and one architectural memory image are shared by all K
// configurations, so a K-point sweep pays the trace traversal once
// instead of K times; MeasureRecorded is the batch of one.
//
// The stream is replayed as one or more contiguous ranges — one range
// over the in-memory access columns when opt.Parallelism is 0, up to
// Parallelism ranges over the compressed chunk stream otherwise — each
// through the same boundary loop (replaySpan), and the range outcomes
// are merged in stream order. Hooks fire at the same access counts as
// the live Measure, so snapshots, FVC samples and audits observe each
// system where a live run would, and results are bit-identical to it.
// A failure (audit violation or simulator panic) aborts the whole
// batch.
func MeasureRecordedBatch(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	return measureRecorded(rec, cfgs, opt, 0)
}

// measureRecorded is MeasureRecordedBatch with the chunk granularity of
// the chunk-parallel path as a parameter (<= 0 selects
// trace.DefaultChunkAccesses), so tests can put seams at awkward
// offsets.
func measureRecorded(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions, chunkAccesses int) ([]MeasureResult, error) {
	if err := ctxErr(opt.Ctx, "replay"); err != nil {
		return nil, err
	}
	cc := make([]core.Config, len(cfgs))
	copy(cc, cfgs)
	for i := range cc {
		cc[i].VerifyValues = opt.VerifyValues
	}
	h := newHooks(opt, cc)

	var ch *trace.ChunkedRecording
	if opt.Parallelism > 0 {
		if parallelEligible(cc) {
			ch = rec.Chunked(chunkAccesses)
		}
		if ch == nil || ch.Chunks() == 0 {
			// Not checkpointable (online FVT) or empty: serial path.
			ch = nil
			obs.ParallelFallbacks.Inc()
		}
	}
	kind := "batch"
	if ch != nil {
		kind = "parallel"
	}
	start := time.Now()
	if opt.Label != "" {
		span := obs.Begin(fmt.Sprintf("%s:%s[%d]", kind, opt.Label, len(cc)))
		defer span.Done()
	}

	var outcomes []*rangeOutcome
	var err error
	if ch != nil {
		outcomes, err = replayParallel(ch, cc, opt, h)
	} else {
		outcomes, err = replaySerial(opt.Ctx, rec, cc, h)
	}
	if err != nil {
		return nil, err
	}
	out, err := merge(outcomes, cc, opt.AuditEvery > 0)
	if err != nil {
		return nil, err
	}
	total := rec.Accesses()
	obs.ReplayEvents.Add(total)
	if opt.Label != "" {
		if d := time.Since(start); d > 0 {
			// System-events per second: one pass drives k systems
			// through every access, so the driver's effective
			// throughput is total×k events over the pass wall-clock.
			obs.Default.Gauge(obs.Labeled(kind+"_events_per_sec", "workload", opt.Label)).
				Set(float64(total) * float64(len(cc)) / d.Seconds())
		}
	}
	return out, nil
}

// replaySerial replays the whole stream as a single range over the
// recording's in-memory access columns.
func replaySerial(ctx context.Context, rec *trace.Recording, cc []core.Config, h hooks) ([]*rangeOutcome, error) {
	set, err := core.NewSet(cc)
	if err != nil {
		return nil, err
	}
	oc := newOutcome(set)
	// Simulator asserts panic; the recover boundary turns them into
	// errors so one corrupt replay cannot take down a whole sweep.
	run := func() error { return replaySpan(ctx, set, stream{rec: rec}, 0, 1, h, nil, oc) }
	if rerr := harness.Recover(run); rerr != nil {
		return nil, fmt.Errorf("sim: batch replay aborted: %w", rerr)
	}
	return []*rangeOutcome{oc}, nil
}

// hooks are the access-count boundaries a measurement observes; zero
// disarms a hook.
type hooks struct {
	warmup, sample, audit uint64
}

// newHooks arms opt's hooks for cfgs. FVC sampling is armed only when
// some configuration has an FVC to sample.
func newHooks(opt MeasureOptions, cfgs []core.Config) hooks {
	h := hooks{warmup: opt.WarmupAccesses, audit: opt.AuditEvery}
	for _, c := range cfgs {
		if c.FVC != nil {
			h.sample = opt.SampleEvery
			break
		}
	}
	return h
}

// next returns the first boundary after access n that is no later
// than end: the context-check cadence (when the replay is
// cancellable), warmup, the next FVC sample and the next audit.
func (h hooks) next(n, end uint64, cancellable bool) uint64 {
	if cancellable && n+cancelCheckEvery < end {
		end = n + cancelCheckEvery
	}
	if h.warmup > n && h.warmup < end {
		end = h.warmup
	}
	if h.sample > 0 {
		if b := n - n%h.sample + h.sample; b < end {
			end = b
		}
	}
	if h.audit > 0 {
		if b := n - n%h.audit + h.audit; b < end {
			end = b
		}
	}
	return end
}

// stream is the access stream a replay walks, in chunks: the
// recording's in-memory access columns as one chunk (serial), or its
// compressed chunk stream (chunk-parallel).
type stream struct {
	rec *trace.Recording
	ch  *trace.ChunkedRecording
}

// chunk returns chunk ci's access columns and the global index of its
// first access, decoding compressed chunks into scratch.
func (s stream) chunk(ci int, scratch *trace.ChunkScratch) (start uint64, ops []trace.Op, addrs, vals []uint32, err error) {
	if s.ch == nil {
		ops, addrs, vals = s.rec.AccessColumns()
		return 0, ops, addrs, vals, nil
	}
	ops, addrs, vals, err = s.ch.DecodeChunk(ci, scratch)
	obs.ReplayChunks.Inc()
	return s.ch.ChunkStart(ci), ops, addrs, vals, err
}

// rangeOutcome is what the replay of one contiguous range of the
// stream observed: every hook observation inside it, in stream order,
// and the set that replayed it, whose stats minus start are the
// range's stats delta.
type rangeOutcome struct {
	set         *core.SystemSet
	entry, exit core.SetState // canonical cache state at range start / end (parallel only)
	start       []core.Stats  // per-system stats at range start
	warmPart    []core.Stats  // per-system delta from range start to the warmup boundary; nil if outside
	fracs, occs []float64     // k FVC frequent-fraction / occupancy values per sample boundary
	samples     int
}

// newOutcome opens the outcome of a range that set — already
// positioned at the range start (memory image and cache state) — is
// about to replay.
func newOutcome(set *core.SystemSet) *rangeOutcome {
	oc := &rangeOutcome{set: set, start: make([]core.Stats, set.Len())}
	for i, s := range set.Systems() {
		oc.start[i] = s.Stats()
	}
	return oc
}

// replaySpan is the replay loop: it drives chunks [first, end) of src
// through set, cutting the columns at every boundary hooks.next picks
// (boundaries are global access indexes, so every range observes what
// a single whole-stream replay would), checking ctx and recording each
// boundary's observations into oc. With no hook armed oc may be nil:
// the loop then only replays, allocation-free once scratch is warm.
func replaySpan(ctx context.Context, set *core.SystemSet, src stream, first, end int, h hooks, scratch *trace.ChunkScratch, oc *rangeOutcome) error {
	for ci := first; ci < end; ci++ {
		start, ops, addrs, vals, err := src.chunk(ci, scratch)
		if err != nil {
			return err
		}
		chunkEnd := start + uint64(len(ops))
		for n := start; n < chunkEnd; {
			if err := ctxErr(ctx, "replay"); err != nil {
				return err
			}
			next := h.next(n, chunkEnd, ctx != nil)
			lo, hi := n-start, next-start
			set.ReplayColumns(ops[lo:hi], addrs[lo:hi], vals[lo:hi])
			n = next
			if h != (hooks{}) {
				if err := oc.observe(n, h); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// observe records what boundary n sees: the warmup snapshot, one FVC
// sample per system, and the periodic audit.
func (oc *rangeOutcome) observe(n uint64, h hooks) error {
	systems := oc.set.Systems()
	if h.warmup > 0 && n == h.warmup {
		oc.warmPart = make([]core.Stats, len(systems))
		for i, s := range systems {
			oc.warmPart[i] = s.Stats().Minus(oc.start[i])
		}
	}
	if h.sample > 0 && n%h.sample == 0 {
		for _, s := range systems {
			var frac, occ float64
			if f := s.FVC(); f != nil {
				frac = f.FrequentFraction()
				occ = float64(f.ValidEntries()) / float64(f.Params().Entries)
			}
			oc.fracs = append(oc.fracs, frac)
			oc.occs = append(oc.occs, occ)
		}
		oc.samples++
	}
	if h.audit > 0 && n%h.audit == 0 {
		for i, s := range systems {
			if aerr := s.AuditInvariants(); aerr != nil {
				return fmt.Errorf("config %d: %w", i, aerr)
			}
		}
	}
	return nil
}

// merge folds the range outcomes, in stream order, into per-config
// results: per-range stats deltas sum, the warmup snapshot is the sum
// of the deltas before it, and FVC samples are summed in global
// boundary order so float rounding matches a single running sum.
// audit runs the final audit on the systems that replayed the
// stream's tail.
func merge(outcomes []*rangeOutcome, cc []core.Config, audit bool) ([]MeasureResult, error) {
	k := len(cc)
	total := make([]core.Stats, k)
	warmAbs := make([]core.Stats, k)
	fracSum := make([]float64, k)
	occSum := make([]float64, k)
	samples := 0
	for _, oc := range outcomes {
		if oc.warmPart != nil {
			for i := range warmAbs {
				warmAbs[i] = total[i].Plus(oc.warmPart[i])
			}
		}
		for i, s := range oc.set.Systems() {
			total[i] = total[i].Plus(s.Stats().Minus(oc.start[i]))
		}
		for s := 0; s < oc.samples; s++ {
			for i := 0; i < k; i++ {
				fracSum[i] += oc.fracs[s*k+i]
				occSum[i] += oc.occs[s*k+i]
			}
		}
		samples += oc.samples
	}
	if audit {
		for i, s := range outcomes[len(outcomes)-1].set.Systems() {
			if aerr := s.AuditInvariants(); aerr != nil {
				return nil, fmt.Errorf("sim: final audit (config %d): %w", i, aerr)
			}
		}
	}
	out := make([]MeasureResult, k)
	for i := range out {
		out[i].Stats = total[i].Minus(warmAbs[i])
		if samples > 0 && cc[i].FVC != nil {
			out[i].FVCFreqFrac = fracSum[i] / float64(samples)
			out[i].FVCOccupancy = occSum[i] / float64(samples)
		}
	}
	return out, nil
}

// MeasureBatch is MeasureRecordedBatch driven from the shared
// recording cache: the sweep's one execution of (w, scale) fans the
// whole configuration batch through a single fused replay pass.
func MeasureBatch(w workload.Workload, scale workload.Scale, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	rec, err := Recordings.Get(w, scale)
	if err != nil {
		return nil, err
	}
	return MeasureRecordedBatch(rec, cfgs, opt)
}

// MissAttributionSets is MissAttribution driven from a recording, for
// several value sets at once: one replay pass classifies every miss
// against each set, instead of re-simulating the hierarchy per set.
func MissAttributionSets(rec *trace.Recording, cfg core.Config, sets [][]uint32) (total uint64, attributed []uint64, err error) {
	sys, err := core.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	lookup := make([]map[uint32]struct{}, len(sets))
	for i, values := range sets {
		lookup[i] = make(map[uint32]struct{}, len(values))
		for _, v := range values {
			lookup[i][v] = struct{}{}
		}
	}
	attributed = make([]uint64, len(sets))
	run := func() error {
		ops, addrs, vals := rec.AccessColumns()
		for i, op := range ops {
			if sys.Access(op, addrs[i], vals[i]) == core.Miss {
				total++
				for si, set := range lookup {
					if _, ok := set[vals[i]]; ok {
						attributed[si]++
					}
				}
			}
		}
		return nil
	}
	if rerr := harness.Recover(run); rerr != nil {
		return 0, nil, fmt.Errorf("sim: miss attribution aborted: %w", rerr)
	}
	return total, attributed, nil
}
