package trace

import (
	"fmt"
	"math/bits"
	"sort"
)

// Stats accumulates summary statistics over a stream of access events.
// It is a Sink; allocation events are ignored.
type Stats struct {
	Loads     uint64
	Stores    uint64
	MinAddr   uint32
	MaxAddr   uint32
	seenAny   bool
	uniqAddrs map[uint32]struct{}
	uniqVals  map[uint32]struct{}
}

// NewStats returns an empty Stats collector.
func NewStats() *Stats {
	return &Stats{
		uniqAddrs: make(map[uint32]struct{}),
		uniqVals:  make(map[uint32]struct{}),
	}
}

// Emit records e if it is an access.
func (s *Stats) Emit(e Event) {
	if !e.Op.IsAccess() {
		return
	}
	if e.Op == Load {
		s.Loads++
	} else {
		s.Stores++
	}
	if !s.seenAny || e.Addr < s.MinAddr {
		s.MinAddr = e.Addr
	}
	if !s.seenAny || e.Addr > s.MaxAddr {
		s.MaxAddr = e.Addr
	}
	s.seenAny = true
	s.uniqAddrs[e.Addr] = struct{}{}
	s.uniqVals[e.Value] = struct{}{}
}

// Accesses returns loads + stores.
func (s *Stats) Accesses() uint64 { return s.Loads + s.Stores }

// UniqueAddrs returns the number of distinct word addresses touched.
func (s *Stats) UniqueAddrs() int { return len(s.uniqAddrs) }

// UniqueValues returns the number of distinct values moved.
func (s *Stats) UniqueValues() int { return len(s.uniqVals) }

// Footprint returns the touched footprint in bytes (unique words × 4).
func (s *Stats) Footprint() uint64 { return uint64(len(s.uniqAddrs)) * WordBytes }

// String summarizes the stats on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("accesses=%d (ld=%d st=%d) uniqAddrs=%d uniqVals=%d footprint=%dB",
		s.Accesses(), s.Loads, s.Stores, s.UniqueAddrs(), s.UniqueValues(), s.Footprint())
}

// ValueHistogram counts, for every distinct value, how many accesses
// carried it. It powers the "frequently accessed values" half of the
// paper's Section 2 study.
type ValueHistogram struct {
	counts ValueCounts
	total  uint64
}

// NewValueHistogram returns an empty histogram.
func NewValueHistogram() *ValueHistogram {
	return &ValueHistogram{}
}

// Emit records the value of an access event.
func (h *ValueHistogram) Emit(e Event) {
	if !e.Op.IsAccess() {
		return
	}
	h.counts.Add(e.Value)
	h.total++
}

// AddValues counts every value of vals as one access: the values
// column of a recording's access projection (Recording.AccessColumns)
// counts exactly as replaying the recording through Emit would.
func (h *ValueHistogram) AddValues(vals []uint32) {
	for _, v := range vals {
		h.counts.Add(v)
	}
	h.total += uint64(len(vals))
}

// Total returns the number of accesses recorded.
func (h *ValueHistogram) Total() uint64 { return h.total }

// Count returns the access count for value v.
func (h *ValueHistogram) Count(v uint32) uint64 { return h.counts.Count(v) }

// Distinct returns the number of distinct values seen.
func (h *ValueHistogram) Distinct() int { return h.counts.Len() }

// ValueCounts is a count per distinct uint32, the counting core of
// ValueHistogram and of the occurrence sampler's snapshots. It is an
// open-addressed table with linear probing, so the per-access Add that
// a map would serve with a hashed assignment is one multiply and,
// mostly, one probe. The zero value is empty and ready to use.
type ValueCounts struct {
	keys   []uint32
	counts []uint64 // 0 marks an empty slot: a present key counts >= 1
	n      int
	shift  uint32 // 32 - log2(len(keys))
}

// Add counts one more occurrence of v.
func (c *ValueCounts) Add(v uint32) {
	if 2*(c.n+1) > len(c.keys) {
		c.grow()
	}
	mask := uint32(len(c.keys) - 1)
	for i := (v * 0x9e3779b1) >> c.shift; ; i = (i + 1) & mask {
		if c.counts[i] == 0 {
			c.keys[i], c.counts[i] = v, 1
			c.n++
			return
		}
		if c.keys[i] == v {
			c.counts[i]++
			return
		}
	}
}

// Count returns how many times v was added.
func (c *ValueCounts) Count(v uint32) uint64 {
	if c.n == 0 {
		return 0
	}
	mask := uint32(len(c.keys) - 1)
	for i := (v * 0x9e3779b1) >> c.shift; c.counts[i] != 0; i = (i + 1) & mask {
		if c.keys[i] == v {
			return c.counts[i]
		}
	}
	return 0
}

// Len returns the number of distinct values added.
func (c *ValueCounts) Len() int { return c.n }

// Each calls fn with every distinct value and its count, in no
// particular order.
func (c *ValueCounts) Each(fn func(v uint32, n uint64)) {
	for i, n := range c.counts {
		if n != 0 {
			fn(c.keys[i], n)
		}
	}
}

// Reset empties the table, keeping its storage.
func (c *ValueCounts) Reset() {
	clear(c.counts)
	c.n = 0
}

// grow doubles the table (from 64 slots) and re-adds every count.
func (c *ValueCounts) grow() {
	keys, counts := c.keys, c.counts
	size := max(64, 2*len(keys))
	c.keys, c.counts = make([]uint32, size), make([]uint64, size)
	c.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for j, n := range counts {
		if n == 0 {
			continue
		}
		i := (keys[j] * 0x9e3779b1) >> c.shift
		for c.counts[i] != 0 {
			i = (i + 1) & mask
		}
		c.keys[i], c.counts[i] = keys[j], n
	}
}

// ValueCount pairs a value with its frequency.
type ValueCount struct {
	Value uint32
	Count uint64
}

// maxSelectK is the largest k TopK selects by insertion; a larger k
// sorts every value.
const maxSelectK = 64

// TopK returns the k most frequent values in decreasing order of
// count, breaking ties by smaller value for determinism. Values are
// distinct, so that order is total and the result is the first k of
// the fully sorted histogram. Up to maxSelectK it keeps a sorted run
// of the best k seen, which most values leave after one comparison,
// so a profile's top 16 of 10^5 values costs one pass, not a sort.
func (h *ValueHistogram) TopK(k int) []ValueCount {
	c := &h.counts
	k = min(max(k, 0), c.n)
	if k > maxSelectK {
		all := make([]ValueCount, 0, c.n)
		c.Each(func(v uint32, n uint64) { all = append(all, ValueCount{Value: v, Count: n}) })
		sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
		return all[:k]
	}
	top := make([]ValueCount, 0, k)
	if k == 0 {
		return top
	}
	for i, n := range c.counts {
		vc := ValueCount{Value: c.keys[i], Count: n}
		if n == 0 || len(top) == k && !before(vc, top[k-1]) {
			continue
		}
		if len(top) < k {
			top = append(top, vc)
		} else {
			top[k-1] = vc
		}
		for j := len(top) - 1; j > 0 && before(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top
}

// before reports whether a ranks ahead of b in TopK's order.
func before(a, b ValueCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Value < b.Value
}

// CoverageOfTopK returns the fraction of all accesses covered by the
// top k values, in [0,1]. Returns 0 when the histogram is empty.
func (h *ValueHistogram) CoverageOfTopK(k int) float64 {
	if h.total == 0 {
		return 0
	}
	var covered uint64
	for _, vc := range h.TopK(k) {
		covered += vc.Count
	}
	return float64(covered) / float64(h.total)
}
