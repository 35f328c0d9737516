// Package fvc implements the Frequent Value Cache of Zhang, Yang and
// Gupta (ASPLOS 2000): a small direct-mapped, value-centric cache that
// stores, per cached line, only an address tag and a few-bit code per
// word. Each code names one of the top-N frequently accessed values or
// the reserved "infrequent" escape, compressing a 32-bit word to 1-3
// bits while preserving random access within the line.
package fvc

import "fmt"

// Table is the frequent value table (FVT): the ordered set of values
// the FVC can encode. With a code width of b bits, 2^b-1 values are
// encodable and the all-ones code is reserved for "infrequent".
//
// Encode and Contains run on the simulator's hot path (every store
// that misses both caches, every FVC write hit), so small tables — the
// paper's configurations hold at most 7 values, 4-bit codes at most
// 15 — answer through a collision-free multiplicative hash: slot
// (v*mult)>>(32-hashBits) is the only place v can be, so one multiply,
// one load and one compare replace the scan, with no allocation.
// Tables above smallTableMax values, and the small table no multiplier
// separates, keep the map index.
type Table struct {
	bits   int
	escape uint8
	values []uint32
	mult   uint32
	slots  [hashSlots]tableSlot
	index  map[uint32]uint8 // nil for hashed tables
}

// tableSlot is one hash slot: the value that hashes there and its
// code, or, in an empty slot, a value that hashes elsewhere (so it
// never matches) and the escape code.
type tableSlot struct {
	v    uint32
	code uint8
}

const (
	// smallTableMax is the largest table indexed by the hash.
	smallTableMax = 16
	// hashBits sizes the hash at 64 slots, four times the largest
	// hashed table, so a separating multiplier is found in a few
	// tries.
	hashBits  = 6
	hashSlots = 1 << hashBits
)

// MaxValues returns the number of frequent values a b-bit code can
// name (one code is reserved as the escape).
func MaxValues(bits int) int { return (1 << bits) - 1 }

// NewTable builds an FVT with the given code width (1, 2 or 3 bits in
// the paper; any width in [1,8] is accepted) holding values. Values
// beyond the width's capacity are rejected, as are duplicates.
func NewTable(bits int, values []uint32) (*Table, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("fvc: code width must be in [1,8] bits, got %d", bits)
	}
	if len(values) > MaxValues(bits) {
		return nil, fmt.Errorf("fvc: %d values exceed capacity %d of a %d-bit code",
			len(values), MaxValues(bits), bits)
	}
	for i, v := range values {
		for _, prev := range values[:i] {
			if prev == v {
				return nil, fmt.Errorf("fvc: duplicate frequent value %#x", v)
			}
		}
	}
	t := &Table{bits: bits, escape: uint8(1<<bits) - 1, values: append([]uint32(nil), values...)}
	if len(values) > smallTableMax || !t.hash() {
		t.index = make(map[uint32]uint8, len(values))
		for i, v := range values {
			t.index[v] = uint8(i)
		}
	}
	return t, nil
}

// hash looks for a multiplier that sends every value to its own slot
// and fills the slots, reporting whether it found one. The search is
// deterministic: the same values always get the same multiplier.
func (t *Table) hash() bool {
	m := uint32(0x9e3779b1) // odd, and odd plus an even step stays odd
next:
	for try := 0; try < 1<<12; try, m = try+1, m+0x3c6ef372 {
		var used uint64
		for _, v := range t.values {
			bit := uint64(1) << ((v * m) >> (32 - hashBits))
			if used&bit != 0 {
				continue next
			}
			used |= bit
		}
		t.mult = m
		empty := tableSlot{code: t.escape}
		if len(t.values) > 0 {
			empty.v = t.values[0]
		}
		for i := range t.slots {
			t.slots[i] = empty
		}
		for i, v := range t.values {
			t.slots[(v*m)>>(32-hashBits)] = tableSlot{v: v, code: uint8(i)}
		}
		return true
	}
	return false
}

// MustTable is NewTable that panics on error, for tests and fixed
// configurations.
func MustTable(bits int, values []uint32) *Table {
	t, err := NewTable(bits, values)
	if err != nil {
		panic(err)
	}
	return t
}

// Bits returns the code width.
func (t *Table) Bits() int { return t.bits }

// Escape returns the reserved "infrequent value" code (all ones).
func (t *Table) Escape() uint8 { return t.escape }

// Len returns the number of frequent values in the table.
func (t *Table) Len() int { return len(t.values) }

// Values returns a copy of the table's values in code order.
func (t *Table) Values() []uint32 { return append([]uint32(nil), t.values...) }

// Encode maps a value to its code; ok is false (and the escape code is
// returned) when v is not a frequent value.
func (t *Table) Encode(v uint32) (code uint8, ok bool) {
	if t.index == nil {
		s := &t.slots[(v*t.mult)>>(32-hashBits)]
		if s.v == v && s.code != t.escape {
			return s.code, true
		}
		return t.escape, false
	}
	if c, found := t.index[v]; found {
		return c, true
	}
	return t.escape, false
}

// Decode returns the value a non-escape code names.
// It panics on the escape code or an unassigned code: callers must
// check for the escape first (the hardware analogue is that the
// decoder is only enabled on a frequent-value hit).
func (t *Table) Decode(code uint8) uint32 {
	if int(code) >= len(t.values) {
		badCode(code, len(t.values))
	}
	return t.values[code]
}

// badCode panics for Decode; outlined so Decode inlines.
//
//go:noinline
func badCode(code uint8, n int) {
	panic(fmt.Sprintf("fvc: Decode of non-value code %d (table holds %d values)", code, n))
}

// Contains reports whether v is in the table.
func (t *Table) Contains(v uint32) bool {
	_, ok := t.Encode(v)
	return ok
}
