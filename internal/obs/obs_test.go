// The obs behavior tests exercise the enabled build; the obsoff
// no-op contract is pinned in obsoff_test.go.
//go:build !obsoff

package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter must be get-or-create idempotent")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Load(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	h := r.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("hist count = %d, want 6", h.Count())
	}
	if want := uint64(0+1+2+3+100) + 1<<40; h.Sum() != want {
		t.Errorf("hist sum = %d, want %d", h.Sum(), want)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(uint64(j))
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("hist count = %d, want 8000", got)
	}
}

func TestRegistryResetKeepsIdentities(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(7)
	r.Reset()
	if c.Load() != 0 {
		t.Errorf("reset counter = %d, want 0", c.Load())
	}
	c.Inc()
	// The pre-reset pointer must still feed snapshots.
	if got := r.Snapshot().Counters["c"]; got != 1 {
		t.Errorf("snapshot after reset sees %d, want 1", got)
	}
}

func TestSpanTree(t *testing.T) {
	r := NewRegistry()
	a := r.Root().Begin("record")
	b := a.Begin("spill")
	b.Done()
	a.Done()
	open := r.Root().Begin("replay") // left open on purpose

	snap := r.Snapshot()
	if snap.Phases.Name != "run" || !snap.Phases.Open {
		t.Fatalf("root phase = %+v, want open 'run'", snap.Phases)
	}
	if len(snap.Phases.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(snap.Phases.Children))
	}
	rec := snap.Phases.Children[0]
	if rec.Name != "record" || rec.Open || len(rec.Children) != 1 || rec.Children[0].Name != "spill" {
		t.Errorf("record subtree = %+v", rec)
	}
	if rep := snap.Phases.Children[1]; rep.Name != "replay" || !rep.Open {
		t.Errorf("replay phase = %+v, want open", rep)
	}
	_ = open
}

func TestSpanChildCapBounds(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpanChildren+10; i++ {
		r.Root().Begin("x").Done()
	}
	snap := r.Snapshot()
	if got := len(snap.Phases.Children); got != maxSpanChildren {
		t.Errorf("children = %d, want capped at %d", got, maxSpanChildren)
	}
	if snap.Phases.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", snap.Phases.Dropped)
	}
}

func TestSpanDuration(t *testing.T) {
	s := (&Registry{root: &Span{name: "run", start: time.Now()}}).Root().Begin("p")
	time.Sleep(5 * time.Millisecond)
	s.Done()
	if d := s.Duration(); d < 5*time.Millisecond || d > 5*time.Second {
		t.Errorf("duration = %v, want ~5ms", d)
	}
	before := s.Duration()
	s.Done() // idempotent
	if s.Duration() != before {
		t.Error("second Done must not move the end time")
	}
}

func TestLoggerLevelsAndJSON(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf)
	setLogLevel(slog.LevelInfo)
	defer setLogLevel(slog.LevelWarn)
	l.Debug("dropped")
	l.Info("kept", "k", 1, "s", "v")
	l.Error("bad", "err", "boom")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (debug dropped): %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line not JSON: %v: %s", err, lines[0])
	}
	if first["level"] != "INFO" || first["msg"] != "kept" || first["k"] != float64(1) || first["s"] != "v" {
		t.Errorf("line fields = %v", first)
	}
	if ts, _ := first["time"].(string); ts == "" {
		t.Errorf("line has no time: %v", first)
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("bad time: %v", err)
	}
}

func TestLoggerOddKVAndNonStringKey(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf)
	// Built at run time, so vet's static key/value check cannot catch
	// them: a malformed pair must still yield one JSON line.
	for _, kv := range [][]any{{"tail"}, {42, "v"}} {
		l.Warn("malformed", kv...)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line not JSON: %v: %s", err, line)
		}
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("eps", "workload", "ccomp"); got != `eps{workload="ccomp"}` {
		t.Errorf("Labeled = %q", got)
	}
}
