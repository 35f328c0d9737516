package sim

import (
	"fmt"
	"sync"
	"time"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/memsim"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// Record executes w at scale once and captures its entire event stream
// into a trace.Recording. Workloads are deterministic in (name, scale),
// so replaying the recording into any sink is observationally identical
// to re-running the workload — but skips the workload's own compute and
// the per-event closure dispatch, which is what makes the sweep
// engine's record-once/replay-many strategy sound.
func Record(w workload.Workload, scale workload.Scale) (*trace.Recording, error) {
	span := obs.Begin("record:" + w.Name())
	defer span.Done()
	start := time.Now()
	rec := trace.NewRecording()
	env := memsim.NewEnv(rec)
	if rerr := harness.Recover(func() error { w.Run(env, scale); return nil }); rerr != nil {
		return nil, fmt.Errorf("sim: recording aborted: %w", rerr)
	}
	rec.Finish()
	obs.RecordedEvents.Add(uint64(rec.Len()))
	if d := time.Since(start); d > 0 {
		obs.Default.Gauge(obs.Labeled("record_events_per_sec", "workload", w.Name())).
			Set(float64(rec.Len()) / d.Seconds())
	}
	obs.Log.Debug("workload recorded", "workload", w.Name(), "scale", scale.String(),
		"events", rec.Len(), "accesses", rec.Accesses())
	return rec, nil
}

type recKey struct {
	name  string
	scale workload.Scale
}

type recEntry struct {
	once sync.Once
	rec  *trace.Recording
	err  error
}

// RecordingCache memoizes Record results by (workload name, scale).
// Concurrent callers asking for the same recording block on a single
// execution (singleflight); distinct workloads record in parallel.
// Recordings are immutable once recorded, so the returned *Recording
// may be replayed concurrently from any number of goroutines.
type RecordingCache struct {
	mu      sync.Mutex
	entries map[recKey]*recEntry
}

// Get returns the cached recording of w at scale, recording it on
// first use.
func (c *RecordingCache) Get(w workload.Workload, scale workload.Scale) (*trace.Recording, error) {
	k := recKey{name: w.Name(), scale: scale}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[recKey]*recEntry)
	}
	e := c.entries[k]
	if e == nil {
		e = new(recEntry)
		c.entries[k] = e
		obs.RecordingMisses.Inc()
	} else {
		obs.RecordingHits.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() { e.rec, e.err = Record(w, scale) })
	return e.rec, e.err
}

// Reset drops every cached recording, releasing their buffers.
func (c *RecordingCache) Reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// Recordings is the process-wide recording cache the experiment sweeps
// share.
var Recordings RecordingCache

// ReplayInto drives every access event of rec through sys with no
// per-event closure or interface dispatch: a straight loop over the
// recording's columns calling the concrete (*core.System).Access.
// Non-access events carry no simulator semantics (System.Emit drops
// them), so they are skipped.
func ReplayInto(rec *trace.Recording, sys *core.System) {
	ops, addrs, vals := rec.Columns()
	sys.ReplayColumns(ops, addrs, vals)
	obs.ReplayEvents.Add(uint64(len(ops)))
}

// MeasureRecorded measures one configuration from a recording: a batch
// of one through MeasureRecordedBatch. For a recording of w at scale
// and no warmup, its Stats are bit-identical to Measure(w, scale, cfg).
func MeasureRecorded(rec *trace.Recording, cfg core.Config, opt MeasureOptions) (MeasureResult, error) {
	out, err := MeasureRecordedBatch(rec, []core.Config{cfg}, opt)
	if err != nil {
		return MeasureResult{}, err
	}
	return out[0], nil
}
