package obs

import (
	"reflect"
	"testing"
)

// Merging two frozen quantile snapshots must equal freezing one
// histogram that observed the union — the property the fleet metrics
// aggregation relies on.
func TestMergeQuantileSnapshotsExact(t *testing.T) {
	a, b, union := new(Histogram), new(Histogram), new(Histogram)
	for i := uint64(1); i <= 2000; i++ {
		v := i * i % 100003
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	merged, err := mergeHistogram(a.freeze(), b.freeze())
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	want := union.freeze()
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged snapshot differs from union:\n got %+v\nwant %+v", merged, want)
	}
}

func TestMergeQuantileSnapshotsEmptyAndMismatch(t *testing.T) {
	if !Enabled {
		t.Skip("histograms no-op under obsoff; nothing to merge")
	}
	h := new(Histogram)
	h.Observe(42)
	snap := h.freeze()

	if got, err := mergeHistogram(HistogramSnapshot{}, snap); err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("empty+snap should return snap, got %+v err %v", got, err)
	}
	if got, err := mergeHistogram(snap, HistogramSnapshot{}); err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("snap+empty should return snap, got %+v err %v", got, err)
	}
	// A peer recorded at another precision is on another bucket lattice.
	other := snap
	other.SigFigs = histSigFigs + 1
	if _, err := mergeHistogram(snap, other); err == nil {
		t.Fatal("sigfigs mismatch must error")
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := &Snapshot{
		Counters: map[string]uint64{"reqs": 3, "only_a": 1},
		Gauges:   map[string]float64{"depth": 2},
	}
	b := &Snapshot{
		Counters: map[string]uint64{"reqs": 4, "only_b": 5},
		Gauges:   map[string]float64{"depth": 3},
		UptimeMS: 99,
	}
	if err := MergeSnapshots(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Counters["reqs"] != 7 || a.Counters["only_a"] != 1 || a.Counters["only_b"] != 5 {
		t.Fatalf("counters merged wrong: %+v", a.Counters)
	}
	if a.Gauges["depth"] != 5 {
		t.Fatalf("gauges merged wrong: %+v", a.Gauges)
	}
	if a.UptimeMS != 99 {
		t.Fatalf("uptime should take the max, got %d", a.UptimeMS)
	}
	// A peer histogram recorded at another precision must be refused.
	h := HistogramSnapshot{SigFigs: histSigFigs, Count: 1, Sum: 5, Buckets: []Bucket{{Le: 5, Count: 1}}}
	peer := h
	peer.SigFigs++
	a.Histograms = map[string]HistogramSnapshot{"h": h}
	if err := MergeSnapshots(a, &Snapshot{Histograms: map[string]HistogramSnapshot{"h": peer}}); err == nil {
		t.Fatal("merging a histogram at another precision must fail")
	}
}
