package fvc

import (
	"fmt"

	"fvcache/internal/trace"
)

// Params describes an FVC geometry.
type Params struct {
	// Entries is the total number of entries (lines).
	Entries int
	// LineBytes is the line size of the companion main cache; the FVC
	// keeps one code per word of such a line.
	LineBytes int
	// Bits is the per-word code width (1, 2 or 3 in the paper),
	// supporting 2^Bits-1 frequent values.
	Bits int
	// Assoc is the set associativity; 0 or 1 means direct mapped (the
	// paper's design). Higher associativity is an extension explored
	// by follow-up work.
	Assoc int
}

// assoc returns the effective associativity (>= 1).
func (p Params) assoc() int {
	if p.Assoc <= 1 {
		return 1
	}
	return p.Assoc
}

// Sets returns the number of sets.
func (p Params) Sets() int { return p.Entries / p.assoc() }

// Validate checks the geometry.
func (p Params) Validate() error {
	switch {
	case p.Entries <= 0 || p.Entries&(p.Entries-1) != 0:
		return fmt.Errorf("fvc: Entries must be a positive power of two, got %d", p.Entries)
	case p.LineBytes < trace.WordBytes || p.LineBytes&(p.LineBytes-1) != 0:
		return fmt.Errorf("fvc: LineBytes must be a power of two >= %d, got %d", trace.WordBytes, p.LineBytes)
	case p.Bits < 1 || p.Bits > 8:
		return fmt.Errorf("fvc: Bits must be in [1,8], got %d", p.Bits)
	case p.Assoc < 0 || p.assoc() > p.Entries || p.Entries%p.assoc() != 0:
		return fmt.Errorf("fvc: Assoc %d incompatible with %d entries", p.Assoc, p.Entries)
	case p.Sets()&(p.Sets()-1) != 0:
		return fmt.Errorf("fvc: number of sets %d must be a power of two", p.Sets())
	}
	return nil
}

// WordsPerLine returns the number of word codes per entry.
func (p Params) WordsPerLine() int { return p.LineBytes / trace.WordBytes }

// DataBits returns the encoded-data bits per entry.
func (p Params) DataBits() int { return p.WordsPerLine() * p.Bits }

// DataSizeBytes returns the total encoded-data capacity in bytes —
// the figure the paper quotes (e.g. 512 entries × 8 words × 3 bits =
// 1.5KB).
func (p Params) DataSizeBytes() float64 {
	return float64(p.Entries*p.DataBits()) / 8
}

// String renders the geometry, e.g. "512e/3b/8wpl".
func (p Params) String() string {
	return fmt.Sprintf("%de/%db/%dwpl", p.Entries, p.Bits, p.WordsPerLine())
}

// Entry is one FVC line: a tag plus one code per word.
type Entry struct {
	Tag   uint32 // line address (byte address / LineBytes)
	Valid bool
	Dirty bool
	Codes []uint8
	lru   uint64
}

// FrequentWords returns how many of the entry's codes name frequent
// values (are not the escape).
func (e *Entry) FrequentWords(escape uint8) int {
	n := 0
	for _, c := range e.Codes {
		if c != escape {
			n++
		}
	}
	return n
}

// FVC is the frequent value cache: value centric, direct mapped in
// the paper's design (optionally set associative).
type FVC struct {
	p       Params
	table   *Table
	entries []Entry // sets of p.assoc() consecutive ways
	escape  uint8
	clock   uint64

	lineShift uint32
	idxMask   uint32
	wordMask  uint32 // words per line - 1
	dm        bool   // direct mapped: a line's only way is entries[lineAddr&idxMask]
	// rankCode maps a rank in a list this table is a prefix of to
	// its code: itself below the table's length, else the escape.
	rankCode [256]uint8
}

// New builds an FVC with geometry p over the frequent value table t.
// The table's code width must match p.Bits.
func New(p Params, t *Table) (*FVC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if t.Bits() != p.Bits {
		return nil, fmt.Errorf("fvc: table width %d does not match params width %d", t.Bits(), p.Bits)
	}
	entries := make([]Entry, p.Entries)
	codes := make([]uint8, p.Entries*p.WordsPerLine())
	for i := range entries {
		entries[i].Codes, codes = codes[:p.WordsPerLine():p.WordsPerLine()], codes[p.WordsPerLine():]
	}
	f := &FVC{
		p:         p,
		entries:   entries,
		idxMask:   uint32(p.Sets() - 1),
		lineShift: uint32(log2(p.LineBytes)),
		wordMask:  uint32(p.WordsPerLine() - 1),
		dm:        p.assoc() == 1,
	}
	f.setTable(t)
	return f, nil
}

// setTable makes t the table codes are read and written with.
func (f *FVC) setTable(t *Table) {
	f.table = t
	f.escape = t.Escape()
	for r := range f.rankCode {
		f.rankCode[r] = f.escape
		if r < t.Len() {
			f.rankCode[r] = uint8(r)
		}
	}
}

// MustNew is New that panics on error.
func MustNew(p Params, t *Table) *FVC {
	f, err := New(p, t)
	if err != nil {
		panic(err)
	}
	return f
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Params returns the geometry.
func (f *FVC) Params() Params { return f.p }

// Table returns the frequent value table in use.
func (f *FVC) Table() *Table { return f.table }

// LineAddr returns the line address for a byte address.
func (f *FVC) LineAddr(addr uint32) uint32 { return addr >> f.lineShift }

// find returns the way holding lineAddr within its set, or nil.
func (f *FVC) find(lineAddr uint32) *Entry {
	if f.dm {
		if e := &f.entries[lineAddr&f.idxMask]; e.Valid && e.Tag == lineAddr {
			return e
		}
		return nil
	}
	set := f.set(lineAddr)
	for i := range set {
		if set[i].Valid && set[i].Tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// set returns the ways of lineAddr's set.
func (f *FVC) set(lineAddr uint32) []Entry {
	a := f.p.assoc()
	base := int(lineAddr&f.idxMask) * a
	return f.entries[base : base+a]
}

// victimWay picks the fill target in lineAddr's set: an invalid way if
// any, else the LRU way.
func (f *FVC) victimWay(lineAddr uint32) *Entry {
	if f.dm {
		return &f.entries[lineAddr&f.idxMask]
	}
	set := f.set(lineAddr)
	v := &set[0]
	for i := range set {
		e := &set[i]
		if !e.Valid {
			return e
		}
		if e.lru < v.lru {
			v = e
		}
	}
	return v
}

func (f *FVC) wordIndex(addr uint32) int {
	return int((addr >> 2) & f.wordMask)
}

// Probe is the parallel-lookup result for one access.
type Probe struct {
	// TagMatch is true when the entry at the address's index is valid
	// and holds the address's line.
	TagMatch bool
	// WordFrequent is true when, additionally, the accessed word's
	// code names a frequent value. TagMatch && WordFrequent is a read
	// hit.
	WordFrequent bool

	code  uint8
	table *Table
}

// Value decodes the frequent value the accessed word holds; meaningful
// only when WordFrequent is true. Lookup leaves the decode to Value so
// that the simulator's hot path, which needs only the two flags, skips
// it.
func (p Probe) Value() uint32 {
	if !p.WordFrequent {
		return 0
	}
	return p.table.Decode(p.code)
}

// Lookup probes the FVC for addr without modifying state.
func (f *FVC) Lookup(addr uint32) Probe {
	e := f.find(f.LineAddr(addr))
	if e == nil {
		return Probe{}
	}
	code := e.Codes[f.wordIndex(addr)]
	if code == f.escape {
		return Probe{TagMatch: true}
	}
	return Probe{TagMatch: true, WordFrequent: true, code: code, table: f.table}
}

// WriteWord attempts a write hit: if the entry holds addr's line and v
// is a frequent value, the word's code is updated, the entry is marked
// dirty, and true is returned. In every other case the FVC is left
// unchanged and false is returned (the caller then treats the access
// per the miss protocol).
func (f *FVC) WriteWord(addr, v uint32) bool {
	e := f.find(f.LineAddr(addr))
	if e == nil {
		return false
	}
	code, ok := f.table.Encode(v)
	if !ok {
		return false
	}
	e.Codes[f.wordIndex(addr)] = code
	e.Dirty = true
	f.clock++
	e.lru = f.clock
	return true
}

// Displaced summarizes the prior contents of an entry overwritten or
// invalidated on the simulation hot path. Writeback accounting needs
// only the tag, the dirty bit, and the count of frequent words, so no
// code array is copied — the Install*/Invalidate variants returning a
// full Entry snapshot allocate one per displacement, which the
// steady-state access path cannot afford.
type Displaced struct {
	Tag   uint32
	Valid bool
	Dirty bool
	// FreqWords is the number of frequent words a dirty entry writes
	// back; it is not counted (0) for a clean one.
	FreqWords int
}

// displaced captures e's accounting summary before it is overwritten.
func (f *FVC) displaced(e *Entry) Displaced {
	if !e.Valid {
		return Displaced{}
	}
	d := Displaced{Tag: e.Tag, Valid: true, Dirty: e.Dirty}
	if e.Dirty {
		d.FreqWords = e.FrequentWords(f.escape)
	}
	return d
}

// fillFootprint overwrites e with lineAddr's encoded footprint (clean).
func (f *FVC) fillFootprint(e *Entry, lineAddr uint32, words []uint32) {
	e.Tag = lineAddr
	e.Valid = true
	e.Dirty = false
	f.clock++
	e.lru = f.clock
	for i, v := range words {
		code, ok := f.table.Encode(v)
		if !ok {
			code = f.escape
		}
		e.Codes[i] = code
	}
}

// fillWriteMiss overwrites e with a dirty single-word allocation.
func (f *FVC) fillWriteMiss(e *Entry, lineAddr uint32, word int, code uint8) {
	e.Tag = lineAddr
	e.Valid = true
	e.Dirty = true
	f.clock++
	e.lru = f.clock
	for i := range e.Codes {
		e.Codes[i] = f.escape
	}
	e.Codes[word] = code
}

// InstallFootprint records the frequent-value footprint of a line
// evicted from the main cache: each word's value is encoded if
// frequent, escaped otherwise. The displaced entry (if valid) is
// returned so the caller can account for its writeback. The new entry
// is clean: the main cache wrote the line back to memory at the same
// time (the paper's first insertion rule).
func (f *FVC) InstallFootprint(lineAddr uint32, words []uint32) Entry {
	if len(words) != f.p.WordsPerLine() {
		panic(fmt.Sprintf("fvc: footprint of %d words, want %d", len(words), f.p.WordsPerLine()))
	}
	e := f.victimWay(lineAddr)
	out := snapshot(e)
	f.fillFootprint(e, lineAddr, words)
	return out
}

// EncodeWords encodes words into codes (len(codes) == len(words)) and
// reports whether any word is a frequent value. It lets the eviction
// path encode a line exactly once: the caller decides (skip-empty
// policy) from anyFrequent and then installs the codes verbatim with
// InstallCodes, instead of scanning the table once for the decision
// and again for the install.
func (f *FVC) EncodeWords(words []uint32, codes []uint8) (anyFrequent bool) {
	for i, v := range words {
		code, ok := f.table.Encode(v)
		if !ok {
			code = f.escape
		}
		codes[i] = code
		if ok {
			anyFrequent = true
		}
	}
	return anyFrequent
}

// EncodeRanks is EncodeWords for a line whose words are given by rank:
// ranks[i] is the position of word i's value in a frequent value list
// that this FVC's table is a prefix of (a rank at or past the list's
// end for a value not in it). A rank below the table's length is the
// word's code and any other rank is the escape, so no value is looked
// up.
func (f *FVC) EncodeRanks(ranks, codes []uint8) (anyFrequent bool) {
	codes = codes[:len(ranks)]
	var freq uint8 // nonzero once a code is not the escape
	for i, r := range ranks {
		c := f.rankCode[r]
		codes[i] = c
		freq |= c ^ f.escape
	}
	return freq != 0
}

// InstallCodes installs a footprint pre-encoded by EncodeWords or
// EncodeRanks, returning the displaced entry's accounting summary. The
// new entry is clean, matching InstallFootprint.
func (f *FVC) InstallCodes(lineAddr uint32, codes []uint8) Displaced {
	if len(codes) != f.p.WordsPerLine() {
		panic(fmt.Sprintf("fvc: footprint of %d codes, want %d", len(codes), f.p.WordsPerLine()))
	}
	e := f.victimWay(lineAddr)
	out := f.displaced(e)
	e.Tag = lineAddr
	e.Valid = true
	e.Dirty = false
	f.clock++
	e.lru = f.clock
	copy(e.Codes, codes)
	return out
}

// InstallWriteMiss handles the paper's write-miss exception: a store of
// a frequent value that misses both caches allocates directly into the
// FVC with every other word marked infrequent. The displaced entry is
// returned. The new entry is dirty.
//
// The value must be frequent; callers check with Table().Contains.
func (f *FVC) InstallWriteMiss(addr, v uint32) Entry {
	code, ok := f.table.Encode(v)
	if !ok {
		panic(fmt.Sprintf("fvc: InstallWriteMiss with infrequent value %#x", v))
	}
	la := f.LineAddr(addr)
	e := f.victimWay(la)
	out := snapshot(e)
	f.fillWriteMiss(e, la, f.wordIndex(addr), code)
	return out
}

// InstallWriteMissFast is InstallWriteMiss returning only the
// displaced entry's accounting summary, with no allocation.
func (f *FVC) InstallWriteMissFast(addr, v uint32) Displaced {
	code, ok := f.table.Encode(v)
	if !ok {
		panic(fmt.Sprintf("fvc: InstallWriteMiss with infrequent value %#x", v))
	}
	la := f.LineAddr(addr)
	e := f.victimWay(la)
	out := f.displaced(e)
	f.fillWriteMiss(e, la, f.wordIndex(addr), code)
	return out
}

// Invalidate removes the entry holding addr's line, if present, and
// returns its prior contents (for writeback accounting and for
// overlaying its frequent words onto a memory fetch).
func (f *FVC) Invalidate(addr uint32) Entry {
	e := f.find(f.LineAddr(addr))
	if e == nil {
		return Entry{}
	}
	out := snapshot(e)
	e.Valid = false
	e.Dirty = false
	return out
}

// InvalidateFast is Invalidate returning only the removed entry's
// accounting summary, with no allocation.
func (f *FVC) InvalidateFast(addr uint32) Displaced {
	e := f.find(f.LineAddr(addr))
	if e == nil {
		return Displaced{}
	}
	out := f.displaced(e)
	e.Valid = false
	e.Dirty = false
	return out
}

// snapshot copies an entry's state (including codes) for return values.
func snapshot(e *Entry) Entry {
	if !e.Valid {
		return Entry{}
	}
	return Entry{Tag: e.Tag, Valid: true, Dirty: e.Dirty, Codes: append([]uint8(nil), e.Codes...)}
}

// Escape returns the escape code.
func (f *FVC) Escape() uint8 { return f.escape }

// ReplaceTable installs a new frequent value table, invalidating every
// entry (existing codes are meaningless under the new table). It
// returns the number of frequent words in dirty entries that must be
// written back to memory. The new table's width must match the
// geometry. This is the hardware step behind online frequent-value
// identification: when the FVT registers are rewritten, the FVC is
// flushed.
func (f *FVC) ReplaceTable(t *Table) (dirtyWords int, err error) {
	if t.Bits() != f.p.Bits {
		return 0, fmt.Errorf("fvc: replacement table width %d does not match params width %d",
			t.Bits(), f.p.Bits)
	}
	for i := range f.entries {
		e := &f.entries[i]
		if e.Valid && e.Dirty {
			dirtyWords += e.FrequentWords(f.escape)
		}
		e.Valid = false
		e.Dirty = false
	}
	f.setTable(t)
	return dirtyWords, nil
}

// ValidEntries returns the number of valid entries.
func (f *FVC) ValidEntries() int {
	n := 0
	for i := range f.entries {
		if f.entries[i].Valid {
			n++
		}
	}
	return n
}

// FrequentFraction returns the average fraction of frequent (non-
// escape) codes across valid entries, in [0,1]. This is the quantity
// plotted in the paper's Figure 11. Returns 0 when no entry is valid.
func (f *FVC) FrequentFraction() float64 {
	var freq, total int
	for i := range f.entries {
		e := &f.entries[i]
		if !e.Valid {
			continue
		}
		freq += e.FrequentWords(f.escape)
		total += len(e.Codes)
	}
	if total == 0 {
		return 0
	}
	return float64(freq) / float64(total)
}

// CorruptCode overwrites the code of the given word in the valid
// entry holding lineAddr, reporting whether such an entry exists.
// Fault-injection support (internal/faultinject): it models a bit
// flip in the FVC data array, which the invariant audit or the
// VerifyValues asserts must subsequently detect. Never called on the
// simulation path.
func (f *FVC) CorruptCode(lineAddr uint32, word int, code uint8) bool {
	e := f.find(lineAddr)
	if e == nil || word < 0 || word >= len(e.Codes) {
		return false
	}
	e.Codes[word] = code
	return true
}

// VisitValid calls fn with every valid entry (snapshot copies).
func (f *FVC) VisitValid(fn func(Entry)) {
	for i := range f.entries {
		if f.entries[i].Valid {
			fn(snapshot(&f.entries[i]))
		}
	}
}
