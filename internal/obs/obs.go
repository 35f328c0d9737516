// Package obs is the repo's low-overhead telemetry layer: a metrics
// registry (atomic counters, gauges and exact, mergeable HDR
// histograms), phase/span timing that builds a per-run phase tree,
// structured JSON-lines logging through log/slog, profiling hooks
// (-cpuprofile, -memprofile, -trace, -pprof-addr) and a snapshot
// exporter that serializes the whole registry to a machine-diffable
// telemetry.json artifact (or Prometheus text format on demand).
//
// Design constraints, in order:
//
//  1. The simulator's steady-state replay loops are allocation-free
//     and must stay that way with telemetry compiled in. Hot paths
//     therefore never record per event: instrumentation sits at replay
//     boundaries (a few atomic adds per replay or fused-batch chunk),
//     and the well-known metrics below are package-level variables so
//     the hot code pays no registry lookup.
//  2. Telemetry compiles to no-ops when disabled: every mutator is
//     guarded by the compile-time Enabled constant (see the obsoff
//     build tag), so a disabled build dead-code-eliminates the
//     instrumentation entirely, and the logger's level is set above
//     every level so it writes nothing.
//  3. Everything is bounded: a histogram is a fixed array of counters,
//     span trees cap their fan-out and count what they drop, and the
//     logger drops below-level lines before formatting them.
//
// The package is dependency-free within the repo (everything may
// import it) and all of it is safe for concurrent use.
package obs

// Default is the process-wide registry every subsystem records into.
// The cmd binaries snapshot it into telemetry.json at exit.
var Default = NewRegistry()

// Well-known metrics, pre-registered on Default so hot paths can
// increment them without a registry lookup.
var (
	// ReplayEvents counts events replayed from recordings: the access
	// events of each sim.MeasureRecordedBatch replay (the one
	// measurement driver; MeasureRecorded is its batch of one), counted
	// once per replay whatever its configuration count,
	// plus every event sim.ReplayInto drives through a bare System.
	ReplayEvents = Default.Counter("replay_events_total")
	// BatchEvents counts access events driven through the fused batch
	// engine (core.SystemSet.ReplayColumns), once per event regardless
	// of how many member systems consumed it.
	BatchEvents = Default.Counter("batch_events_total")
	// BatchChunks counts ReplayColumns calls (one per hook-bounded
	// chunk of a fused replay).
	BatchChunks = Default.Counter("batch_chunks_total")
	// ProbeRebuilds counts probe-filter rebuilds (dmGroup.pull) at
	// fused-replay chunk entry.
	ProbeRebuilds = Default.Counter("probe_filter_rebuilds_total")
	// ProbeResyncs counts per-line probe-filter resyncs around outlined
	// miss handling in the fused replay loop.
	ProbeResyncs = Default.Counter("probe_filter_resyncs_total")
	// ProbeRunSkips counts fused-replay group probes answered by a
	// same-line run (every member already holds the line) instead of
	// a filter scan, flushed once per chunk.
	ProbeRunSkips = Default.Counter("probe_filter_run_skips_total")
	// RecordingHits / RecordingMisses count recording-cache lookups
	// that found / had to record a workload capture.
	RecordingHits   = Default.Counter("recording_cache_hits_total")
	RecordingMisses = Default.Counter("recording_cache_misses_total")
	// RecordedEvents counts events captured by sim.Record.
	RecordedEvents = Default.Counter("recorded_events_total")
	// LiveMeasures counts live (non-replay) workload measurements.
	LiveMeasures = Default.Counter("live_measures_total")
	// HarnessPanics counts panics recovered at any harness boundary.
	HarnessPanics = Default.Counter("harness_panics_total")
	// SweepTasksDone / SweepTasksFailed / SweepTasksSkipped count sweep
	// artifact outcomes across fvcache.Sweep calls.
	SweepTasksDone    = Default.Counter("sweep_tasks_done_total")
	SweepTasksFailed  = Default.Counter("sweep_tasks_failed_total")
	SweepTasksSkipped = Default.Counter("sweep_tasks_skipped_total")
	// CheckpointErrors counts checkpoint-manifest write failures
	// surfaced by the sweep runner.
	CheckpointErrors = Default.Counter("checkpoint_write_errors_total")
	// TraceCorrupt counts corrupt-trace errors from the hardened
	// reader.
	TraceCorrupt = Default.Counter("trace_corrupt_total")
	// TraceDrained counts events drained through trace.Reader.Drain.
	TraceDrained = Default.Counter("trace_drained_events_total")
	// SweepTaskMS is the distribution of sweep task wall-clock times in
	// milliseconds.
	SweepTaskMS = Default.Histogram("sweep_task_ms")
	// MRCPasses counts single-pass reuse-distance analyses
	// (mrc.Analyze calls); MRCLines counts line-address accesses fed
	// through the Mattson stacks, summed across every model and shard
	// of a pass (incremented at chunk boundaries, never per access).
	MRCPasses = Default.Counter("mrc_passes")
	MRCLines  = Default.Counter("mrc_lines_processed")
)

// Begin opens a child span of the Default registry's root phase tree.
// Shorthand for Default.Root().Begin(name).
func Begin(name string) *Span { return Default.Root().Begin(name) }

// Labeled formats a metric name with one label in Prometheus style:
// Labeled("events_per_sec", "workload", "ccomp") returns
// `events_per_sec{workload="ccomp"}`. The snapshot and Prometheus
// exporters pass such names through unchanged, so per-workload series
// need no dedicated registry machinery.
func Labeled(name, key, value string) string {
	return name + "{" + key + `="` + value + `"}`
}
