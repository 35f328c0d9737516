package sim

import (
	"context"
	"fmt"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// Chunk-parallel replay engine (MeasureOptions.Parallelism).
//
// The recording's compressed chunk stream (trace.ChunkedRecording)
// carries one architectural-memory checkpoint delta per chunk, so the
// exact memory image at any chunk boundary is reconstructible without
// replaying the prefix. Cache state is not checkpointed — it depends
// on the entire access history — so workers recover it speculatively:
//
//  1. Plan: split the chunks into up to Parallelism contiguous ranges.
//  2. Speculate (parallel): each worker builds its own core.SystemSet,
//     seeds the shared memory image from the checkpoint deltas, warms
//     its caches by replaying a short overlap window before its range,
//     captures the canonical cache state at the range boundary
//     (core.SetState), replays its range with full hook parity, and
//     captures its exit state.
//  3. Splice (sequential): range 0 ran from a cold start and is exact
//     by construction. Each later range is accepted iff its captured
//     entry state equals the previous accepted range's exit state —
//     canonical snapshots erase absolute LRU clocks, so behavioral
//     equality is plain comparison. On a mismatch the range is re-run
//     inline, seeded from the true prior exit state, which is exact by
//     induction; the worst case degenerates to serial replay, never to
//     wrong results.
//  4. Merge: the accepted range outcomes go through the same merge as
//     the serial replay's single range (see merge), which reproduces
//     its warmup subtraction, FVC sample averages and final audit
//     exactly.

// seamRange is one worker's chunk assignment: replay chunks
// [first, end), warming up over [warm, first).
type seamRange struct {
	warm, first, end int
}

// planRanges splits c chunks into up to w contiguous near-even ranges,
// each preceded by at most warmChunks of warm-up overlap. Range 0
// starts cold at chunk 0 (its prefix is empty, so it is always exact).
func planRanges(c, w, warmChunks int) []seamRange {
	if w > c {
		w = c
	}
	ranges := make([]seamRange, 0, w)
	base, rem := c/w, c%w
	first := 0
	for i := 0; i < w; i++ {
		n := base
		if i < rem {
			n++
		}
		warm := first - warmChunks
		if warm < 0 || i == 0 {
			warm = 0
		}
		if i == 0 {
			warm = first // range 0 has no warm-up: it starts exact
		}
		ranges = append(ranges, seamRange{warm: warm, first: first, end: first + n})
		first += n
	}
	return ranges
}

// parallelEligible reports whether every configuration's cache state
// can be checkpointed (no online FVT identification).
func parallelEligible(cfgs []core.Config) bool {
	for _, c := range cfgs {
		if !c.Checkpointable() {
			return false
		}
	}
	return true
}

// adaptiveOverlap returns the warm-up window in accesses: 8x
// the largest configured cache-state line count, enough that the LRU
// state a range inherits from its true prefix is overwhelmingly
// reconstructed by the overlap replay. L2 lines are weighted by a
// coarse inverse-miss-rate factor — the L2 only observes L1 misses, so
// refreshing its state takes far more accesses per line.
func adaptiveOverlap(cfgs []core.Config) uint64 {
	maxLines := 0
	for _, c := range cfgs {
		lines := c.Main.NumLines() + c.VictimEntries
		if c.FVC != nil {
			lines += c.FVC.Entries
		}
		if c.L2 != nil {
			lines += 16 * c.L2.NumLines()
		}
		if lines > maxLines {
			maxLines = lines
		}
	}
	return 8 * uint64(maxLines)
}

// buildSeededSet constructs a SystemSet for cc and seeds its shared
// memory image with the checkpoint deltas of chunks [0, uptoChunk):
// the exact architectural image at that chunk's entry boundary.
func buildSeededSet(cc []core.Config, ch *trace.ChunkedRecording, uptoChunk int) (*core.SystemSet, error) {
	set, err := core.NewSet(cc)
	if err != nil {
		return nil, err
	}
	mem := set.Memory()
	for i := 0; i < uptoChunk; i++ {
		if err := ch.VisitDelta(i, mem.StoreWord); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// replayParallel replays ch in up to opt.Parallelism ranges and returns
// the accepted range outcomes in stream order, ready for merge.
func replayParallel(ch *trace.ChunkedRecording, cc []core.Config, opt MeasureOptions, h hooks) ([]*rangeOutcome, error) {
	obs.ParallelReplays.Inc()
	target := uint64(ch.ChunkTarget())
	warmChunks := int((adaptiveOverlap(cc) + target - 1) / target)
	// A warm-up longer than the range it precedes costs more than the
	// re-run it is trying to avoid: cap it at half a range.
	if maxWarm := ch.Chunks() / opt.Parallelism / 2; warmChunks > maxWarm {
		warmChunks = maxWarm
	}
	ranges := planRanges(ch.Chunks(), opt.Parallelism, warmChunks)
	src := stream{ch: ch}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	// Speculative phase: every range replays concurrently. harness.Map
	// recovers worker panics (simulator asserts) into errors and
	// cancels siblings on first failure.
	outcomes, merr := harness.Map(ctx, len(ranges), harness.MapOptions{Workers: opt.Parallelism},
		func(ctx context.Context, ri int) (*rangeOutcome, error) {
			r := ranges[ri]
			obs.ParallelRanges.Inc()
			set, err := buildSeededSet(cc, ch, r.warm)
			if err != nil {
				return nil, err
			}
			var scratch trace.ChunkScratch
			if err := replaySpan(ctx, set, src, r.warm, r.first, hooks{}, &scratch, nil); err != nil {
				return nil, err
			}
			oc := newOutcome(set)
			if ri > 0 {
				set.CaptureState(&oc.entry)
			}
			if err := replaySpan(ctx, set, src, r.first, r.end, h, &scratch, oc); err != nil {
				return nil, err
			}
			set.CaptureState(&oc.exit)
			return oc, nil
		})
	if merr != nil {
		return nil, fmt.Errorf("sim: parallel replay aborted: %w", merr)
	}

	// Splice phase: walk the seams in order, re-running any range whose
	// speculated entry state does not match its predecessor's exit.
	for ri := 1; ri < len(ranges); ri++ {
		if outcomes[ri].entry.Equal(&outcomes[ri-1].exit) {
			obs.SeamMatches.Inc()
			continue
		}
		obs.SeamReruns.Inc()
		r := ranges[ri]
		var oc *rangeOutcome
		rerun := func() error {
			set, err := buildSeededSet(cc, ch, r.first)
			if err != nil {
				return err
			}
			set.RestoreState(&outcomes[ri-1].exit)
			oc = newOutcome(set)
			var scratch trace.ChunkScratch
			if err := replaySpan(ctx, set, src, r.first, r.end, h, &scratch, oc); err != nil {
				return err
			}
			set.CaptureState(&oc.exit)
			return nil
		}
		if rerr := harness.Recover(rerun); rerr != nil {
			return nil, fmt.Errorf("sim: parallel replay aborted (seam re-run %d): %w", ri, rerr)
		}
		outcomes[ri] = oc
	}
	return outcomes, nil
}
