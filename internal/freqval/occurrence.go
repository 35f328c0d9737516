package freqval

import (
	"sort"

	"fvcache/internal/memsim"
	"fvcache/internal/trace"
)

// Sample is one memory-content snapshot: for every distinct value, the
// number of interesting locations holding it at the sample point.
type Sample struct {
	// AtAccess is the access count at which the sample was taken.
	AtAccess uint64
	// Locations is the number of interesting locations considered.
	Locations int
	// Counts maps each value to the number of locations holding it.
	Counts map[uint32]int
}

// Unique returns the number of distinct values in the sample.
func (s *Sample) Unique() int { return len(s.Counts) }

// OccurrenceSampler periodically snapshots the contents of the
// "interesting" memory locations — those that have been referenced and
// not deallocated since — mirroring the paper's every-10M-instruction
// sampling (rescaled to accesses). It consumes the full event stream
// (accesses mark locations as referenced; free events retire them).
type OccurrenceSampler struct {
	mem      *memsim.Memory
	interval uint64
	accesses uint64
	nextAt   uint64

	live    map[uint32]struct{}
	samples []Sample

	// recent is a direct-mapped filter in front of live: a slot holding
	// addr|1 says addr is live, so an access to it skips the map
	// assignment. A free clears the slots of the addresses it retires.
	recent [recentSlots]uint32
	// counts is the per-sample value tally, reused across samples.
	counts trace.ValueCounts
}

// recentSlots sizes the live-set filter (16 KB of addresses).
const recentSlots = 4096

func recentSlot(addr uint32) uint32 { return (addr >> 2) & (recentSlots - 1) }

// NewOccurrenceSampler samples mem every interval accesses.
func NewOccurrenceSampler(mem *memsim.Memory, interval uint64) *OccurrenceSampler {
	if interval == 0 {
		interval = 1 << 20
	}
	return &OccurrenceSampler{
		mem:      mem,
		interval: interval,
		nextAt:   interval,
		live:     make(map[uint32]struct{}),
	}
}

// Emit consumes one trace event.
func (o *OccurrenceSampler) Emit(e trace.Event) {
	switch e.Op {
	case trace.Load, trace.Store:
		if h := recentSlot(e.Addr); o.recent[h] != e.Addr|1 {
			o.live[e.Addr] = struct{}{}
			o.recent[h] = e.Addr | 1
		}
		o.accesses++
		if o.accesses >= o.nextAt {
			o.takeSample()
			o.nextAt += o.interval
		}
	case trace.StackFree, trace.HeapFree:
		for off := uint32(0); off < e.Size(); off += trace.WordBytes {
			a := e.Addr + off
			delete(o.live, a)
			if h := recentSlot(a); o.recent[h] == a|1 {
				o.recent[h] = 0
			}
		}
	}
}

func (o *OccurrenceSampler) takeSample() {
	o.counts.Reset()
	for addr := range o.live {
		o.counts.Add(o.mem.LoadWord(addr))
	}
	counts := make(map[uint32]int, o.counts.Len())
	o.counts.Each(func(v uint32, n uint64) { counts[v] = int(n) })
	o.samples = append(o.samples, Sample{
		AtAccess:  o.accesses,
		Locations: len(o.live),
		Counts:    counts,
	})
}

// Finalize takes a last sample of the end state if the stream ended
// between sample points (and guarantees at least one sample for
// non-empty streams).
func (o *OccurrenceSampler) Finalize() {
	if o.accesses == 0 {
		return
	}
	if len(o.samples) == 0 || o.samples[len(o.samples)-1].AtAccess != o.accesses {
		o.takeSample()
	}
}

// Samples returns the snapshots in chronological order.
func (o *OccurrenceSampler) Samples() []Sample { return o.samples }

// LiveLocations returns the current number of interesting locations.
func (o *OccurrenceSampler) LiveLocations() int { return len(o.live) }

// LiveAddrs returns the current interesting addresses (in arbitrary
// order) — the input for the Figure 5 spatial scan.
func (o *OccurrenceSampler) LiveAddrs() []uint32 {
	out := make([]uint32, 0, len(o.live))
	for a := range o.live {
		out = append(out, a)
	}
	return out
}

// avgFractions returns, for each value ever observed, the mean over
// samples of the fraction of locations holding it.
func (o *OccurrenceSampler) avgFractions() map[uint32]float64 {
	fr := make(map[uint32]float64)
	for _, s := range o.samples {
		if s.Locations == 0 {
			continue
		}
		inv := 1 / float64(s.Locations)
		for v, c := range s.Counts {
			fr[v] += float64(c) * inv
		}
	}
	if n := len(o.samples); n > 0 {
		inv := 1 / float64(n)
		for v := range fr {
			fr[v] *= inv
		}
	}
	return fr
}

// TopOccurring returns the k most frequently occurring values, ranked
// by their average fraction of locations across samples.
func (o *OccurrenceSampler) TopOccurring(k int) []uint32 {
	fr := o.avgFractions()
	type vf struct {
		v uint32
		f float64
	}
	all := make([]vf, 0, len(fr))
	for v, f := range fr {
		all = append(all, vf{v, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint32, k)
	for i := range out {
		out[i] = all[i].v
	}
	return out
}

// AvgCoverage returns the average (over samples) fraction of
// interesting locations occupied by the given values — the paper's
// "ten distinct values occupy over 50% of memory locations" metric.
func (o *OccurrenceSampler) AvgCoverage(values []uint32) float64 {
	if len(o.samples) == 0 {
		return 0
	}
	set := make(map[uint32]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	var sum float64
	for _, s := range o.samples {
		if s.Locations == 0 {
			continue
		}
		covered := 0
		for v := range set {
			covered += s.Counts[v]
		}
		sum += float64(covered) / float64(s.Locations)
	}
	return sum / float64(len(o.samples))
}

// CoverageAt returns, for sample index i, the number of locations
// holding any of values (for the Figure 3 time-series curves).
func (o *OccurrenceSampler) CoverageAt(i int, values []uint32) int {
	s := o.samples[i]
	covered := 0
	for _, v := range values {
		covered += s.Counts[v]
	}
	return covered
}
