package obs

import (
	"fmt"
	"sort"
)

// Snapshot-level merging: the fleet's /debug/metrics?fleet=1 view folds
// every node's frozen telemetry snapshot into one. Counters and gauges
// add; histograms merge bucket-wise, which is exact because all nodes
// freeze the same HDR bucket lattice (same sigfigs ⇒ same
// highestEquivalent bounds), so fleet-wide p99s are computed from true
// merged counts, never by averaging per-node quantile estimates.

// MergeSnapshots folds src into dst in place: counters and gauges sum,
// histograms merge bucket-wise, and dst's quantile headlines are
// recomputed from the merged buckets. dst keeps its own phase tree and
// request traces (those are node-local narratives, not additive
// metrics).
func MergeSnapshots(dst, src *Snapshot) error {
	if src == nil {
		return nil
	}
	if dst.Counters == nil {
		dst.Counters = map[string]uint64{}
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	if dst.Gauges == nil {
		dst.Gauges = map[string]float64{}
	}
	for k, v := range src.Gauges {
		dst.Gauges[k] += v
	}
	if dst.Histograms == nil {
		dst.Histograms = map[string]HistogramSnapshot{}
	}
	for k, v := range src.Histograms {
		m, err := mergeHistogram(dst.Histograms[k], v)
		if err != nil {
			return fmt.Errorf("obs: merging histogram %q: %w", k, err)
		}
		dst.Histograms[k] = m
	}
	if src.UptimeMS > dst.UptimeMS {
		dst.UptimeMS = src.UptimeMS
	}
	return nil
}

// mergeHistogram returns the exact bucket-wise merge of two frozen
// histograms and recomputes the headline quantiles from the merged
// cumulative counts. Errors when the inputs were recorded at different
// precisions (different sigfigs ⇒ different bucket lattices ⇒ the
// merge would be lossy) — a peer's snapshot is outside input.
func mergeHistogram(a, b HistogramSnapshot) (HistogramSnapshot, error) {
	if a.Count == 0 {
		return b, nil
	}
	if b.Count == 0 {
		return a, nil
	}
	if a.SigFigs != b.SigFigs {
		return HistogramSnapshot{}, fmt.Errorf("sigfigs mismatch (%d vs %d)", a.SigFigs, b.SigFigs)
	}
	out := HistogramSnapshot{SigFigs: a.SigFigs, Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	out.Buckets = mergeBuckets(a.Buckets, b.Buckets)
	out.setQuantiles()
	return out, nil
}

// mergeBuckets merges two cumulative bucket lists: de-cumulate each
// into per-bucket deltas, add by bound, re-accumulate in bound order.
func mergeBuckets(a, b []Bucket) []Bucket {
	delta := make(map[uint64]uint64, len(a)+len(b))
	decumulate(a, delta)
	decumulate(b, delta)
	les := make([]uint64, 0, len(delta))
	for le := range delta {
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	out := make([]Bucket, 0, len(les))
	var cum uint64
	for _, le := range les {
		cum += delta[le]
		out = append(out, Bucket{Le: le, Count: cum})
	}
	return out
}

func decumulate(bs []Bucket, into map[uint64]uint64) {
	var prev uint64
	for _, b := range bs {
		into[b.Le] += b.Count - prev
		prev = b.Count
	}
}
