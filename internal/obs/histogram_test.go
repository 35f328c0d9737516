package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestQuantileOracle checks the HDR error guarantee against a
// sorted-sample oracle: every frozen quantile must be >= the true
// sample quantile and within the histogram's relative error above it.
func TestQuantileOracle(t *testing.T) {
	if !Enabled {
		t.Skip("telemetry compiled out")
	}
	rng := rand.New(rand.NewSource(42))
	h := new(Histogram)
	samples := make([]uint64, 0, 15000)
	// Mix of distributions: uniform small, log-uniform wide, and a
	// heavy tail — exercises unit-resolution and scaled buckets.
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1000))
		samples = append(samples, v)
		h.Observe(v)
	}
	for i := 0; i < 5000; i++ {
		v := uint64(math.Exp(rng.Float64() * 20))
		samples = append(samples, v)
		h.Observe(v)
	}
	for i := 0; i < 5000; i++ {
		v := uint64(1_000_000) + uint64(rng.Intn(50_000_000))
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	relErr := math.Pow(10, -histSigFigs)
	s := h.freeze()
	for _, c := range []struct {
		q   float64
		got uint64
	}{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}, {0.999, s.P999}} {
		oracle := samples[int(math.Ceil(c.q*float64(len(samples))))-1]
		if c.got < oracle {
			t.Errorf("q=%g: got %d < oracle %d", c.q, c.got, oracle)
		}
		if bound := oracle + uint64(float64(oracle)*relErr) + 1; c.got > bound {
			t.Errorf("q=%g: got %d > bound %d (oracle %d)", c.q, c.got, bound, oracle)
		}
	}
	if s.Count != uint64(len(samples)) || s.SigFigs != histSigFigs {
		t.Errorf("count %d sigfigs %d, want %d and %d", s.Count, s.SigFigs, len(samples), histSigFigs)
	}
}

// TestQuantileRoundTrip pins the bucket mapping: every representative
// value must land in a bucket whose highest-equivalent bound is >= the
// value and within relative error of it.
func TestQuantileRoundTrip(t *testing.T) {
	relErr := 0.01
	for _, v := range []uint64{0, 1, 2, 99, 100, 127, 128, 255, 256, 1023, 1024,
		12345, 1 << 20, 1<<30 + 7, histMax - 1, histMax} {
		idx := countsIndex(v)
		if idx >= histSlots {
			t.Fatalf("v=%d: slot %d out of %d", v, idx, histSlots)
		}
		hi := highestEquivalent(idx)
		if hi < v {
			t.Errorf("v=%d: highestEquivalent %d < v", v, hi)
		}
		if float64(hi-v) > relErr*float64(v)+1 {
			t.Errorf("v=%d: highestEquivalent %d too far", v, hi)
		}
	}
}

// TestQuantileClamp checks values above the trackable maximum clamp to
// the top bucket instead of being dropped or panicking.
func TestQuantileClamp(t *testing.T) {
	if !Enabled {
		t.Skip("telemetry compiled out")
	}
	h := new(Histogram)
	h.Observe(math.MaxUint64)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if got := h.freeze().P999; got < histMax {
		t.Fatalf("p999 = %d, want >= %d", got, uint64(histMax))
	}
}

// TestQuantileSnapshotValid checks the frozen form passes
// ValidateSnapshot (bucket monotonicity, quantile ordering) and round
// trips through the registry.
func TestQuantileSnapshotValid(t *testing.T) {
	if !Enabled {
		t.Skip("telemetry compiled out")
	}
	r := NewRegistry()
	q := r.Histogram(Labeled("serve_latency_us", "endpoint", "measure"))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		q.Observe(uint64(math.Exp(rng.Float64() * 18)))
	}
	r.SetRequestTraces(func() []RequestTrace {
		return []RequestTrace{{
			ID: "abc123", Endpoint: "measure", Status: 200, Outcome: "executed",
			DurationUS: 1500,
			Spans: []RequestSpan{
				{Name: "parse", Parent: -1, StartUS: 0, DurationUS: 10},
				{Name: "batch_wait", Parent: -1, StartUS: 10, DurationUS: 1400},
				{Name: "replay", Parent: 1, StartUS: 300, DurationUS: 1100},
			},
		}}
	})
	var buf strings.Builder
	s := r.Snapshot()
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ValidateSnapshot([]byte(buf.String()))
	if err != nil {
		t.Fatalf("ValidateSnapshot: %v", err)
	}
	ls, ok := parsed.Histograms[Labeled("serve_latency_us", "endpoint", "measure")]
	if !ok {
		t.Fatal("latency series missing from snapshot")
	}
	if ls.Count != 10000 || ls.P50 == 0 || ls.P50 > ls.P999 {
		t.Fatalf("bad latency snapshot: %+v", ls)
	}
	if len(parsed.Requests) != 1 || parsed.Requests[0].ID != "abc123" {
		t.Fatalf("request traces not exported: %+v", parsed.Requests)
	}
	// Prometheus export must include the latency series as a histogram.
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	// The series labels must survive onto every bucket/sum/count line
	// (merged with le), not be stripped to a bare ambiguous name.
	for _, want := range []string{
		`serve_latency_us_bucket{endpoint="measure",le=`,
		`serve_latency_us_sum{endpoint="measure"}`,
		`serve_latency_us_count{endpoint="measure"} 10000`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus export missing %s:\n%s", want, prom.String())
		}
	}
	if strings.Count(prom.String(), "# TYPE serve_latency_us histogram") != 1 {
		t.Fatalf("TYPE line not deduplicated per base name:\n%s", prom.String())
	}
}

// TestValidateSnapshotRejectsBadTraces checks the new validations fire.
func TestValidateSnapshotRejectsBadTraces(t *testing.T) {
	if !Enabled {
		t.Skip("telemetry compiled out")
	}
	r := NewRegistry()
	r.SetRequestTraces(func() []RequestTrace {
		return []RequestTrace{{
			ID:     "bad",
			Status: 200,
			Spans:  []RequestSpan{{Name: "x", Parent: 5}}, // forward parent
		}}
	})
	var buf strings.Builder
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSnapshot([]byte(buf.String())); err == nil {
		t.Fatal("snapshot with forward span parent validated, want error")
	}
}
