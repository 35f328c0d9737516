// Package cache implements the conventional write-back, write-allocate
// cache models used as the baseline and main cache in the paper's
// evaluation: direct-mapped and N-way set-associative caches with LRU
// replacement, a fully-associative victim cache (Jouppi, ISCA 1990),
// and a shadow-simulation miss classifier.
//
// The caches are trace-driven metadata models: they track tags, valid
// and dirty bits, but not data — architectural values live in the
// memsim.Memory backing store, which is exact because the trace carries
// the value of every access.
package cache

import (
	"fmt"

	"fvcache/internal/trace"
)

// Params describes a cache geometry.
type Params struct {
	// SizeBytes is the total data capacity in bytes.
	SizeBytes int
	// LineBytes is the line (block) size in bytes.
	LineBytes int
	// Assoc is the set associativity; 1 means direct mapped. Assoc ==
	// NumLines() means fully associative.
	Assoc int
}

// Validate checks that the geometry is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.SizeBytes <= 0:
		return fmt.Errorf("cache: SizeBytes must be positive, got %d", p.SizeBytes)
	case p.LineBytes < trace.WordBytes:
		return fmt.Errorf("cache: LineBytes must be >= %d, got %d", trace.WordBytes, p.LineBytes)
	case p.LineBytes&(p.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", p.LineBytes)
	case p.SizeBytes%p.LineBytes != 0:
		return fmt.Errorf("cache: SizeBytes %d not a multiple of LineBytes %d", p.SizeBytes, p.LineBytes)
	case p.Assoc <= 0:
		return fmt.Errorf("cache: Assoc must be positive, got %d", p.Assoc)
	case p.NumLines()%p.Assoc != 0:
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", p.NumLines(), p.Assoc)
	case p.NumSets()&(p.NumSets()-1) != 0:
		return fmt.Errorf("cache: number of sets %d must be a power of two", p.NumSets())
	}
	return nil
}

// NumLines returns the total number of lines.
func (p Params) NumLines() int { return p.SizeBytes / p.LineBytes }

// NumSets returns the number of sets.
func (p Params) NumSets() int { return p.NumLines() / p.Assoc }

// WordsPerLine returns the number of 32-bit words per line.
func (p Params) WordsPerLine() int { return p.LineBytes / trace.WordBytes }

// String renders the geometry, e.g. "16KB/32B/2-way".
func (p Params) String() string {
	return fmt.Sprintf("%s/%dB/%d-way", FormatSize(p.SizeBytes), p.LineBytes, p.Assoc)
}

// FormatSize renders a byte count as a compact human unit.
func FormatSize(b int) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// Line is one cache line's metadata.
type Line struct {
	Tag   uint32 // line address (addr / LineBytes); full address tag
	Valid bool
	Dirty bool
	lru   uint64 // last-touch stamp for LRU
}

// Cache is a write-back, write-allocate cache. It stores metadata only.
type Cache struct {
	p     Params
	sets  [][]Line
	lines []Line // the flat backing array the sets are carved from
	clock uint64

	setMask   uint32
	lineShift uint32
}

// New builds a cache with the given geometry; it panics on invalid
// Params (callers validate user input with Params.Validate first).
func New(p Params) *Cache {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]Line, p.NumSets())
	backing := make([]Line, p.NumLines())
	rest := backing
	for i := range sets {
		sets[i], rest = rest[:p.Assoc:p.Assoc], rest[p.Assoc:]
	}
	return &Cache{
		p:         p,
		sets:      sets,
		lines:     backing,
		setMask:   uint32(p.NumSets() - 1),
		lineShift: uint32(log2(p.LineBytes)),
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Params returns the cache geometry.
func (c *Cache) Params() Params { return c.p }

// LineAddr returns the line address (tag) for a byte address.
func (c *Cache) LineAddr(addr uint32) uint32 { return addr >> c.lineShift }

// BaseAddr returns the first byte address of the line with tag t.
func (c *Cache) BaseAddr(tag uint32) uint32 { return tag << c.lineShift }

// setIndex maps a line address to its set (setMask is 0 for a single
// set, and x&0 == 0, so fully-associative geometries need no branch).
func (c *Cache) setIndex(lineAddr uint32) uint32 {
	return lineAddr & c.setMask
}

// Lookup reports whether the line containing addr is present, without
// changing any state.
func (c *Cache) Lookup(addr uint32) bool {
	la := c.setIndex(c.LineAddr(addr))
	tag := c.LineAddr(addr)
	for i := range c.sets[la] {
		ln := &c.sets[la][i]
		if ln.Valid && ln.Tag == tag {
			return true
		}
	}
	return false
}

// Touch looks up the line containing addr and, on a hit, refreshes its
// LRU stamp and applies dirty for stores. It returns whether it hit.
//
// The direct-mapped probe is kept small enough to inline into the
// per-access simulation loop (one candidate way, and no LRU clock to
// maintain since the victim is always that way); wider sets take the
// outlined associative path.
func (c *Cache) Touch(addr uint32, store bool) bool {
	tag := addr >> c.lineShift
	set := c.sets[tag&c.setMask]
	if len(set) == 1 {
		ln := &set[0]
		if ln.Valid && ln.Tag == tag {
			if store {
				ln.Dirty = true
			}
			return true
		}
		return false
	}
	return c.touchAssoc(set, tag, store)
}

//go:noinline
func (c *Cache) touchAssoc(set []Line, tag uint32, store bool) bool {
	for i := range set {
		ln := &set[i]
		if ln.Valid && ln.Tag == tag {
			c.clock++
			ln.lru = c.clock
			if store {
				ln.Dirty = true
			}
			return true
		}
	}
	return false
}

// DMView is a flattened probe handle for a direct-mapped cache. Its
// Touch is small enough for the compiler to inline into the simulator's
// per-access loop, where the generic Touch (which must handle arbitrary
// associativity) is not. The view aliases the cache's line storage, so
// it stays coherent across Insert/Invalidate/Flush; it is invalidated
// only if the cache were rebuilt (caches never are).
type DMView struct {
	lines []Line
	shift uint32
	mask  uint32
}

// DM returns a direct-mapped fast-probe view, or ok == false when the
// cache is not direct mapped.
func (c *Cache) DM() (DMView, bool) {
	if c.p.Assoc != 1 {
		return DMView{}, false
	}
	return DMView{lines: c.lines, shift: c.lineShift, mask: c.setMask}, true
}

// Touch is Cache.Touch for the direct-mapped geometry: one candidate
// way, no LRU clock to maintain.
func (v DMView) Touch(addr uint32, store bool) bool {
	tag := addr >> v.shift
	ln := &v.lines[tag&v.mask]
	if ln.Valid && ln.Tag == tag {
		if store {
			ln.Dirty = true
		}
		return true
	}
	return false
}

// Geometry exposes the view's index function (tag = addr >> shift,
// set = tag & mask) so batched replay can group same-geometry views
// and compute the index once for the whole group.
func (v DMView) Geometry() (shift, mask uint32) { return v.shift, v.mask }

// LineAt returns the backing line at set index i. The pointer aliases
// the cache's own state: batched replay uses it to sync its packed
// probe filter with the authoritative line on misses and at chunk
// boundaries.
func (v DMView) LineAt(i uint32) *Line { return &v.lines[i] }

// Insert is Cache.Insert for the direct-mapped geometry: the line's
// one way is the victim, so there is no set to scan and no LRU clock
// to advance.
func (v DMView) Insert(addr uint32, dirty bool) Victim {
	tag := addr >> v.shift
	ln := &v.lines[tag&v.mask]
	out := Victim{Tag: ln.Tag, Dirty: ln.Dirty, Valid: ln.Valid}
	*ln = Line{Tag: tag, Valid: true, Dirty: dirty}
	return out
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Tag   uint32 // line address of the evicted line
	Dirty bool
	Valid bool // false when the replaced slot was empty (no eviction)
}

// Insert places the line containing addr into the cache, marking it
// dirty if dirty is set, and returns the victim line that was displaced
// (Victim.Valid == false when an empty way was used).
func (c *Cache) Insert(addr uint32, dirty bool) Victim {
	tag := c.LineAddr(addr)
	set := c.sets[c.setIndex(tag)]
	// Reuse an invalid way if present, else evict the LRU way.
	victim := &set[0]
	for i := range set {
		ln := &set[i]
		if !ln.Valid {
			victim = ln
			break
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	out := Victim{Tag: victim.Tag, Dirty: victim.Dirty, Valid: victim.Valid}
	c.clock++
	*victim = Line{Tag: tag, Valid: true, Dirty: dirty, lru: c.clock}
	return out
}

// Invalidate removes the line containing addr if present, returning its
// prior state.
func (c *Cache) Invalidate(addr uint32) Victim {
	tag := c.LineAddr(addr)
	set := c.sets[c.setIndex(tag)]
	for i := range set {
		ln := &set[i]
		if ln.Valid && ln.Tag == tag {
			out := Victim{Tag: ln.Tag, Dirty: ln.Dirty, Valid: true}
			*ln = Line{}
			return out
		}
	}
	return Victim{}
}

// ValidLines returns the number of valid lines (for occupancy stats).
func (c *Cache) ValidLines() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				n++
			}
		}
	}
	return n
}

// VisitValid calls fn for every valid line.
func (c *Cache) VisitValid(fn func(Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				fn(set[i])
			}
		}
	}
}

// Flush invalidates every line, returning the number of dirty lines
// that would have been written back.
func (c *Cache) Flush() int {
	dirty := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid && set[i].Dirty {
				dirty++
			}
			set[i] = Line{}
		}
	}
	return dirty
}
