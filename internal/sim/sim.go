// Package sim drives workloads through the cache hierarchy: a
// profiling pass identifies a workload's frequently accessed values
// (the paper's profile-based FVT selection), and a measurement pass
// replays the workload's recording against one or more configured
// hierarchies through the one measurement driver,
// MeasureRecordedBatch. The live Measure executes the workload
// directly into one hierarchy; its only job is to show that a
// recording replays exactly like the run it came from.
package sim

import (
	"context"
	"fmt"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/memsim"
	"fvcache/internal/obs"
	"fvcache/internal/workload"
)

// MeasureOptions tunes a measurement run.
type MeasureOptions struct {
	// SampleEvery samples the FVC's frequent-value content every this
	// many accesses (0 disables sampling). Used for Figure 11.
	SampleEvery uint64
	// VerifyValues enables the hierarchy's value-verification asserts.
	VerifyValues bool
	// WarmupAccesses excludes the first N accesses from the reported
	// statistics (the hierarchy still simulates them, so its state is
	// warm when measurement begins). 0 measures everything, matching
	// the paper's whole-execution accounting.
	WarmupAccesses uint64
	// AuditEvery runs core.(*System).AuditInvariants every this many
	// accesses (0 disables auditing). An audit failure aborts the
	// measurement with the *core.AuditError describing every violation.
	AuditEvery uint64
	// Label names the measurement in telemetry (phase spans and
	// per-workload throughput gauges). Sweeps set it to the workload
	// name; empty skips the span, keeping tight per-config loops out of
	// the phase tree.
	Label string
	// Ctx, when non-nil, cancels the measurement cooperatively: the
	// replay checks it every cancelCheckEvery accesses (and at every
	// hook boundary) and aborts with the context's error. The fvcache
	// facade and the fvcached service wire per-request deadlines here.
	Ctx context.Context

	// Deprecated: Parallelism is ignored. Every replay runs as one
	// serial pass over the recording's access columns.
	Parallelism int
}

// cancelCheckEvery is how many accesses a cancellable replay drives
// between context checks: coarse enough to keep the steady-state loops
// allocation-free and branch-cheap, fine enough that a replay honors a
// deadline within a few milliseconds.
const cancelCheckEvery = 1 << 16

// ctxErr returns the context's error wrapped as a measurement abort,
// or nil. A nil ctx never cancels.
func ctxErr(ctx context.Context, path string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %s cancelled: %w", path, err)
	}
	return nil
}

// MeasureResult is the outcome of one measurement run.
type MeasureResult struct {
	Stats core.Stats
	// FVCFreqFrac is the average fraction of frequent (non-escape)
	// codes across valid FVC entries over all samples; 0 when the
	// config has no FVC or sampling was disabled.
	FVCFreqFrac float64
	// FVCOccupancy is the average fraction of FVC entries valid.
	FVCOccupancy float64
}

// Measure runs w at scale live into one hierarchy built from cfg and
// returns its statistics: the reference a recording's replay must
// reproduce bit for bit. Hooks (warmup, sampling, audits) and
// cancellation belong to the replay driver, MeasureRecordedBatch.
func Measure(w workload.Workload, scale workload.Scale, cfg core.Config) (core.Stats, error) {
	obs.LiveMeasures.Inc()
	sys, err := core.New(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	// Simulation code asserts via panic (VerifyValues, protocol
	// invariants); the recover boundary converts those into errors so
	// one corrupt run cannot take down a whole sweep.
	env := memsim.NewEnv(sys)
	if rerr := harness.Recover(func() error { w.Run(env, scale); return nil }); rerr != nil {
		return core.Stats{}, fmt.Errorf("sim: measurement aborted: %w", rerr)
	}
	return sys.Stats(), nil
}

// Parallel fan-out lives in harness.Map: one panic-isolating,
// context-aware parallel-map implementation serves the sweeps, the
// experiment pmap and any ad-hoc caller (the former sim.ParallelMap
// wrapper is gone).
