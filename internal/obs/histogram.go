package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-bucket HDR-style histogram for exact-error
// quantile queries: every recorded value lands in a bucket whose width
// is at most value/10^histSigFigs, so any quantile read back is within
// that relative error of the true sample quantile. Every histogram
// shares one bucket layout, so two of them merge by bucket-wise
// addition — the property fleet-wide aggregation needs (merging
// quantile *estimates* is lossy; merging bucket counts is exact).
//
// The layout is the classic HdrHistogram scheme: values below
// 2^histSubMag are recorded at unit resolution; each further
// power-of-two magnitude reuses the top half of the sub-bucket range at
// doubled bucket width, keeping relative error bounded by
// 1/histSubHalf <= 10^-histSigFigs. Everything is bounded at
// construction and Observe is three atomic adds, so the type is
// hot-path safe and lock-free.
type Histogram struct {
	counts [histSlots]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

const (
	// histSigFigs is the precision of every histogram: two significant
	// digits (1% relative error) — tight enough to act on, cheap enough
	// to keep always-on.
	histSigFigs = 2
	// histSubMag is log2 of the sub-bucket count: the smallest power of
	// two >= 2*10^histSigFigs, so that histSubHalf >= 10^histSigFigs.
	histSubMag  = 8
	histSubHalf = 1 << (histSubMag - 1)
	histSubMask = 1<<histSubMag - 1
	// histMax is the largest trackable observation; larger values clamp
	// to it. In microseconds this is ~12.7 days — far beyond any latency
	// worth distinguishing.
	histMaxMag = 40
	histMax    = 1 << histMaxMag
	// histSlots holds the first full sub-bucket range plus one half-range
	// per power-of-two magnitude up to histMax: 4,480 counters.
	histSlots = (histMaxMag - histSubMag + 3) * histSubHalf
)

// countsIndex maps a value to its bucket slot.
func countsIndex(v uint64) int {
	bucket := bits.Len64(v|histSubMask) - histSubMag
	sub := v >> uint(bucket)
	return (bucket+1)*histSubHalf + int(sub) - histSubHalf
}

// highestEquivalent returns the largest value that lands in slot idx.
// It is strictly increasing in idx, which makes the frozen cumulative
// buckets monotonic by construction.
func highestEquivalent(idx int) uint64 {
	bucket := idx/histSubHalf - 1
	sub := uint64(idx%histSubHalf) + histSubHalf
	if bucket < 0 {
		sub -= histSubHalf
		bucket = 0
	}
	return ((sub + 1) << uint(bucket)) - 1
}

// Observe records one value. Values above the trackable maximum clamp
// to the top bucket rather than being dropped: a pathological tail
// must stay visible in p999 even if its exact magnitude saturates.
func (h *Histogram) Observe(v uint64) {
	if !Enabled {
		return
	}
	if v > histMax {
		v = histMax
	}
	h.counts[countsIndex(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observed (clamped) values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// reset zeroes the histogram in place (Registry.Reset).
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
	h.sum.Store(0)
}

// freeze converts the histogram into its snapshot form: cumulative
// non-empty buckets plus the standard quantiles.
func (h *Histogram) freeze() HistogramSnapshot {
	s := HistogramSnapshot{SigFigs: histSigFigs, Count: h.Count(), Sum: h.Sum()}
	var cum uint64
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			cum += c
			s.Buckets = append(s.Buckets, Bucket{Le: highestEquivalent(i), Count: cum})
		}
	}
	s.setQuantiles()
	return s
}

// setQuantiles reads the headline quantiles off the cumulative
// buckets: each is the bound of the bucket holding the ceil(q*n)-th
// smallest observation, so it is >= the true sample quantile and
// exceeds it by at most a factor of 10^-sigfigs.
func (s *HistogramSnapshot) setQuantiles() {
	qs := [...]struct {
		q float64
		v *uint64
	}{{0.50, &s.P50}, {0.90, &s.P90}, {0.99, &s.P99}, {0.999, &s.P999}}
	next := 0
	for _, b := range s.Buckets {
		for next < len(qs) && b.Count >= max(uint64(math.Ceil(qs[next].q*float64(s.Count))), 1) {
			*qs[next].v = b.Le
			next++
		}
	}
}
