package sim

import (
	"context"
	"fmt"
	"time"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// MeasureRecordedBatch is the measurement driver every replayed
// measurement goes through: it replays rec exactly once, driving one
// core.System per configuration in lockstep through a core.SystemSet,
// and returns per-configuration results in cfgs order. One pass over
// the recording's in-memory access columns and one architectural
// memory image are shared by all K configurations, so a K-point sweep
// pays the trace traversal once instead of K times; MeasureRecorded is
// the batch of one.
//
// The pass runs through one boundary loop (replaySpan). Hooks fire
// after exactly the access counts opt names, so the warmup snapshot,
// FVC samples and audits observe each system where a run stepped one
// access at a time would. A failure (audit violation or simulator
// panic) aborts the whole batch.
func MeasureRecordedBatch(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
	if err := ctxErr(opt.Ctx, "replay"); err != nil {
		return nil, err
	}
	cc := make([]core.Config, len(cfgs))
	copy(cc, cfgs)
	for i := range cc {
		cc[i].VerifyValues = opt.VerifyValues
	}
	h := newHooks(opt, cc)
	start := time.Now()
	if opt.Label != "" {
		span := obs.Begin(fmt.Sprintf("batch:%s[%d]", opt.Label, len(cc)))
		defer span.Done()
	}

	set, err := core.NewSet(cc)
	if err != nil {
		return nil, err
	}
	oc := newOutcome(set)
	ops, addrs, vals := rec.AccessColumns()
	// Simulator asserts panic; the recover boundary turns them into
	// errors so one corrupt replay cannot take down a whole sweep.
	run := func() error { return replaySpan(opt.Ctx, ops, addrs, vals, h, oc) }
	if rerr := harness.Recover(run); rerr != nil {
		return nil, fmt.Errorf("sim: batch replay aborted: %w", rerr)
	}
	out, err := oc.results(cc, opt.AuditEvery > 0)
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
			obs.Default.Gauge(obs.Labeled("batch_events_per_sec", "workload", opt.Label)).
				Set(float64(total) * float64(len(cc)) / d.Seconds())
		}
	}
	return out, nil
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

// outcome is what a replay pass observed at its hook boundaries, next
// to the set that replayed it.
type outcome struct {
	set             *core.SystemSet
	warm            []core.Stats // per-system stats at the warmup boundary; nil if never reached
	fracSum, occSum []float64    // per-system FVC frequent-fraction / occupancy sums over samples
	samples         int
}

// newOutcome opens the outcome of a pass that the fresh set is about
// to replay.
func newOutcome(set *core.SystemSet) *outcome {
	return &outcome{set: set, fracSum: make([]float64, set.Len()), occSum: make([]float64, set.Len())}
}

// replaySpan is the replay loop: it drives the access columns through
// oc's set, cutting them at every boundary hooks.next picks, checking
// ctx and recording each boundary's observations into oc. With no
// hook armed and a nil ctx the columns go through in one call.
func replaySpan(ctx context.Context, ops []trace.Op, addrs, vals []uint32, h hooks, oc *outcome) error {
	end := uint64(len(ops))
	for n := uint64(0); n < end; {
		if err := ctxErr(ctx, "replay"); err != nil {
			return err
		}
		next := h.next(n, end, ctx != nil)
		oc.set.ReplayColumns(ops[n:next], addrs[n:next], vals[n:next])
		n = next
		if h != (hooks{}) {
			if err := oc.observe(n, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// observe records what boundary n sees: the warmup snapshot, one FVC
// sample per system, and the periodic audit.
func (oc *outcome) observe(n uint64, h hooks) error {
	systems := oc.set.Systems()
	if h.warmup > 0 && n == h.warmup {
		oc.warm = make([]core.Stats, len(systems))
		for i, s := range systems {
			oc.warm[i] = s.Stats()
		}
	}
	if h.sample > 0 && n%h.sample == 0 {
		for i, s := range systems {
			if f := s.FVC(); f != nil {
				oc.fracSum[i] += f.FrequentFraction()
				oc.occSum[i] += float64(f.ValidEntries()) / float64(f.Params().Entries)
			}
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

// results turns the finished pass into per-config results: stats net
// of the warmup snapshot and FVC sample averages. audit runs the final
// audit first.
func (oc *outcome) results(cc []core.Config, audit bool) ([]MeasureResult, error) {
	systems := oc.set.Systems()
	if audit {
		for i, s := range systems {
			if aerr := s.AuditInvariants(); aerr != nil {
				return nil, fmt.Errorf("sim: final audit (config %d): %w", i, aerr)
			}
		}
	}
	out := make([]MeasureResult, len(cc))
	for i, s := range systems {
		out[i].Stats = s.Stats()
		if oc.warm != nil {
			out[i].Stats = out[i].Stats.Minus(oc.warm[i])
		}
		if oc.samples > 0 && cc[i].FVC != nil {
			out[i].FVCFreqFrac = oc.fracSum[i] / float64(oc.samples)
			out[i].FVCOccupancy = oc.occSum[i] / float64(oc.samples)
		}
	}
	return out, nil
}

// MissAttributionSets replays rec against a plain main cache built
// from cfg and returns the total misses and, per value set, the misses
// whose accessed value is in that set — the paper's Figure 4
// measurement. One replay pass classifies every miss against each set,
// instead of re-simulating the hierarchy per set.
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
