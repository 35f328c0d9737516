package sim

import (
	"sync"

	"fvcache/internal/freqval"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// profileTop is how many values the profile cache retains per
// (workload, scale). Every frequent value table the experiments build
// is a prefix of the top 16 (4-bit codes cap an FVT at 15 values), so
// one histogram scan serves every FVC entry point of a sweep.
const profileTop = 16

type profEntry struct {
	once sync.Once
	vals []uint32
}

// ProfileCache memoizes profile-derived frequent value tables per
// (workload, scale). Like the Recordings cache it
// singleflights concurrent requests: a sweep that attaches FVCs at
// many entry points derives the workload's FVT from one histogram
// scan instead of once per configuration point. Cached slices are
// shared between callers and must not be mutated.
type ProfileCache struct {
	mu      sync.Mutex
	entries map[recKey]*profEntry
}

// TopAccessed returns w's k most frequently accessed values at scale
// (the FVT a profile-directed compiler/loader would install),
// profiling on first use. Requests beyond the cached prefix size fall
// through to an uncached profile pass. It returns nil when w cannot be
// recorded; Recordings.Get reports why.
func (c *ProfileCache) TopAccessed(w workload.Workload, scale workload.Scale, k int) []uint32 {
	if k > profileTop {
		return profileTopAccessed(w, scale, k)
	}
	key := recKey{name: w.Name(), scale: scale}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[recKey]*profEntry)
	}
	e := c.entries[key]
	if e == nil {
		e = new(profEntry)
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.vals = profileTopAccessed(w, scale, profileTop) })
	if k > len(e.vals) {
		k = len(e.vals)
	}
	return e.vals[:k]
}

// Reset drops every cached profile.
func (c *ProfileCache) Reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// Profiles is the process-wide profile cache the experiment sweeps
// share.
var Profiles ProfileCache

// profileTopAccessed performs the uncached profile pass: the value
// histogram counts the access value column of the shared recording of
// w, so a profile pass followed by measurement runs executes the
// workload only once. A workload that cannot be recorded has no
// profile: workloads are deterministic, so running it again would
// fail the same way.
func profileTopAccessed(w workload.Workload, scale workload.Scale, k int) []uint32 {
	rec, err := Recordings.Get(w, scale)
	if err != nil {
		return nil
	}
	h := trace.NewValueHistogram()
	_, _, vals := rec.AccessColumns()
	h.AddValues(vals)
	return freqval.TopAccessed(h, k)
}
