// The obsoff contract: with telemetry compiled out, every mutator is
// a no-op and every read-side API still works (returning empty data),
// so instrumented code needs no build-tag guards of its own.
//go:build obsoff

package obs

import (
	"bytes"
	"log/slog"
	"testing"
)

func TestDisabledMutatorsAreNoOps(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled = true under the obsoff tag")
	}
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 0 {
		t.Errorf("disabled counter = %d, want 0", got)
	}
	g := r.Gauge("g")
	g.Set(3.5)
	if got := g.Load(); got != 0 {
		t.Errorf("disabled gauge = %v, want 0", got)
	}
	h := r.Histogram("h")
	h.Observe(7)
	snap := r.Snapshot()
	if snap.Counters["c"] != 0 || snap.Gauges["g"] != 0 || snap.Histograms["h"].Count != 0 {
		t.Errorf("disabled snapshot carries data: %+v", snap)
	}
}

func TestDisabledSpansAndLogs(t *testing.T) {
	span := Begin("phase")
	child := span.Begin("sub")
	child.Done()
	span.Done()
	if n := len(Default.Snapshot().Phases.Children); n != 0 {
		t.Errorf("disabled span tree has %d children, want 0", n)
	}
	var buf bytes.Buffer
	setLogLevel(slog.LevelDebug)
	newLogger(&buf).Error("should be dropped", "k", "v")
	if buf.Len() != 0 {
		t.Errorf("disabled logger wrote %q", buf.String())
	}
}
