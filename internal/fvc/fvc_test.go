package fvc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMaxValues(t *testing.T) {
	cases := map[int]int{1: 1, 2: 3, 3: 7, 4: 15}
	for bits, want := range cases {
		if got := MaxValues(bits); got != want {
			t.Errorf("MaxValues(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0, nil); err == nil {
		t.Error("width 0 must be rejected")
	}
	if _, err := NewTable(9, nil); err == nil {
		t.Error("width 9 must be rejected")
	}
	if _, err := NewTable(1, []uint32{0, 1}); err == nil {
		t.Error("2 values in a 1-bit code must be rejected")
	}
	if _, err := NewTable(3, []uint32{0, 1, 0}); err == nil {
		t.Error("duplicate values must be rejected")
	}
	if _, err := NewTable(3, []uint32{0, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Errorf("7 values in 3 bits should be fine: %v", err)
	}
}

func TestTableEncodeDecode(t *testing.T) {
	// The paper's Figure 7 table: values 0,-1,1,2,4,8,10 in 3 bits.
	vals := []uint32{0, 0xffffffff, 1, 2, 4, 8, 10}
	tbl := MustTable(3, vals)
	if tbl.Escape() != 7 {
		t.Fatalf("Escape = %d, want 7", tbl.Escape())
	}
	if tbl.Len() != 7 || tbl.Bits() != 3 {
		t.Fatalf("Len/Bits = %d/%d", tbl.Len(), tbl.Bits())
	}
	for i, v := range vals {
		code, ok := tbl.Encode(v)
		if !ok || code != uint8(i) {
			t.Errorf("Encode(%#x) = %d/%v, want %d/true", v, code, ok, i)
		}
		if got := tbl.Decode(uint8(i)); got != v {
			t.Errorf("Decode(%d) = %#x, want %#x", i, got, v)
		}
		if !tbl.Contains(v) {
			t.Errorf("Contains(%#x) = false", v)
		}
	}
	code, ok := tbl.Encode(99999)
	if ok || code != tbl.Escape() {
		t.Errorf("Encode(infrequent) = %d/%v, want escape/false", code, ok)
	}
	if tbl.Contains(99999) {
		t.Error("Contains(99999) = true")
	}
}

// TestTableEncodeMatchesScan checks the hashed tables (up to 16
// values) and the map-indexed ones against a scan of the values, for
// every table size and for values in and out of the table, including
// values that differ only in high bits.
func TestTableEncodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 40; n++ {
		vals := make([]uint32, 0, n)
		for len(vals) < n {
			v := rng.Uint32()
			if rng.Intn(2) == 0 {
				v = uint32(len(vals)) << 28
			}
			if !slices.Contains(vals, v) {
				vals = append(vals, v)
			}
		}
		bits := 1
		for MaxValues(bits) < n {
			bits++
		}
		tbl := MustTable(bits, vals)
		probes := append(slices.Clone(vals), 0, 1, 0xffffffff, 1<<31, rng.Uint32(), rng.Uint32())
		for _, v := range probes {
			want, wantOK := tbl.Escape(), false
			if i := slices.Index(vals, v); i >= 0 {
				want, wantOK = uint8(i), true
			}
			if code, ok := tbl.Encode(v); code != want || ok != wantOK {
				t.Errorf("%d values: Encode(%#x) = %d/%v, want %d/%v", n, v, code, ok, want, wantOK)
			}
			if tbl.Contains(v) != wantOK {
				t.Errorf("%d values: Contains(%#x) = %v", n, v, !wantOK)
			}
		}
	}
}

func TestTableDecodeEscapePanics(t *testing.T) {
	tbl := MustTable(3, []uint32{5})
	defer func() {
		if recover() == nil {
			t.Error("Decode(escape) must panic")
		}
	}()
	tbl.Decode(tbl.Escape())
}

func TestTableValuesCopy(t *testing.T) {
	tbl := MustTable(2, []uint32{10, 20})
	vals := tbl.Values()
	vals[0] = 99
	if got := tbl.Decode(0); got != 10 {
		t.Error("Values() must return a copy")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{Entries: 512, LineBytes: 32, Bits: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []Params{
		{Entries: 0, LineBytes: 32, Bits: 3},
		{Entries: 100, LineBytes: 32, Bits: 3}, // not power of two
		{Entries: 512, LineBytes: 2, Bits: 3},
		{Entries: 512, LineBytes: 48, Bits: 3},
		{Entries: 512, LineBytes: 32, Bits: 0},
		{Entries: 512, LineBytes: 32, Bits: 9},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v should fail validation", p)
		}
	}
}

func TestParamsSizes(t *testing.T) {
	// The paper: 512 entries, 8 words/line, 3 bits -> 24-bit lines,
	// 1.5KB of encoded data.
	p := Params{Entries: 512, LineBytes: 32, Bits: 3}
	if p.WordsPerLine() != 8 {
		t.Errorf("WordsPerLine = %d, want 8", p.WordsPerLine())
	}
	if p.DataBits() != 24 {
		t.Errorf("DataBits = %d, want 24", p.DataBits())
	}
	if got := p.DataSizeBytes(); got != 1536 {
		t.Errorf("DataSizeBytes = %v, want 1536 (1.5KB)", got)
	}
	if got := p.String(); got != "512e/3b/8wpl" {
		t.Errorf("String = %q", got)
	}
}

func newTestFVC(t *testing.T) *FVC {
	t.Helper()
	tbl := MustTable(3, []uint32{0, 0xffffffff, 1, 2, 4, 8, 10})
	return MustNew(Params{Entries: 4, LineBytes: 16, Bits: 3}, tbl)
}

func TestFVCLookupMiss(t *testing.T) {
	f := newTestFVC(t)
	p := f.Lookup(0x1000)
	if p.TagMatch || p.WordFrequent {
		t.Errorf("cold FVC lookup = %+v, want miss", p)
	}
}

func TestFVCInstallFootprintAndLookup(t *testing.T) {
	f := newTestFVC(t)
	// Line with words [0, 99999, 1, 0xffffffff]: words 0,2,3 frequent.
	la := f.LineAddr(0x1000)
	prev := f.InstallFootprint(la, []uint32{0, 99999, 1, 0xffffffff})
	if prev.Valid {
		t.Errorf("install into empty slot displaced %+v", prev)
	}
	cases := []struct {
		addr     uint32
		frequent bool
		value    uint32
	}{
		{0x1000, true, 0},
		{0x1004, false, 0},
		{0x1008, true, 1},
		{0x100c, true, 0xffffffff},
	}
	for _, c := range cases {
		p := f.Lookup(c.addr)
		if !p.TagMatch {
			t.Errorf("Lookup(%#x): no tag match", c.addr)
			continue
		}
		if p.WordFrequent != c.frequent {
			t.Errorf("Lookup(%#x).WordFrequent = %v, want %v", c.addr, p.WordFrequent, c.frequent)
		}
		if c.frequent && p.Value() != c.value {
			t.Errorf("Lookup(%#x).Value = %#x, want %#x", c.addr, p.Value(), c.value)
		}
	}
	if f.ValidEntries() != 1 {
		t.Errorf("ValidEntries = %d, want 1", f.ValidEntries())
	}
}

func TestFVCFootprintWrongLengthPanics(t *testing.T) {
	f := newTestFVC(t)
	defer func() {
		if recover() == nil {
			t.Error("short footprint must panic")
		}
	}()
	f.InstallFootprint(0, []uint32{0})
}

func TestFVCInstallIsClean(t *testing.T) {
	f := newTestFVC(t)
	la := f.LineAddr(0x1000)
	f.InstallFootprint(la, []uint32{0, 0, 0, 0})
	e := f.Invalidate(0x1000)
	if !e.Valid || e.Dirty {
		t.Errorf("footprint entry = %+v, want valid and clean", e)
	}
}

func TestFVCWriteWordHit(t *testing.T) {
	f := newTestFVC(t)
	la := f.LineAddr(0x1000)
	f.InstallFootprint(la, []uint32{0, 99999, 1, 2})
	// Overwrite word 1 (infrequent) with a frequent value: tag match,
	// so this is a write hit that flips the code.
	if !f.WriteWord(0x1004, 4) {
		t.Fatal("write of frequent value with tag match must hit")
	}
	p := f.Lookup(0x1004)
	if !p.WordFrequent || p.Value() != 4 {
		t.Errorf("after write, Lookup = %+v, want value 4", p)
	}
	e := f.Invalidate(0x1000)
	if !e.Dirty {
		t.Error("write hit must dirty the entry")
	}
}

func TestFVCWriteWordMissCases(t *testing.T) {
	f := newTestFVC(t)
	// No tag match: miss even for a frequent value.
	if f.WriteWord(0x1000, 0) {
		t.Error("write without tag match must miss")
	}
	la := f.LineAddr(0x1000)
	f.InstallFootprint(la, []uint32{0, 0, 0, 0})
	// Tag match but infrequent value: miss, and state unchanged.
	if f.WriteWord(0x1004, 99999) {
		t.Error("write of infrequent value must miss")
	}
	p := f.Lookup(0x1004)
	if !p.WordFrequent || p.Value() != 0 {
		t.Errorf("failed write must not change codes: %+v", p)
	}
}

func TestFVCInstallWriteMiss(t *testing.T) {
	f := newTestFVC(t)
	prev := f.InstallWriteMiss(0x1008, 2)
	if prev.Valid {
		t.Errorf("displaced %+v from empty slot", prev)
	}
	p := f.Lookup(0x1008)
	if !p.WordFrequent || p.Value() != 2 {
		t.Errorf("Lookup after write-miss install = %+v", p)
	}
	// All other words must be escaped.
	for _, a := range []uint32{0x1000, 0x1004, 0x100c} {
		p := f.Lookup(a)
		if !p.TagMatch || p.WordFrequent {
			t.Errorf("Lookup(%#x) = %+v, want tag match + infrequent", a, p)
		}
	}
	e := f.Invalidate(0x1008)
	if !e.Dirty {
		t.Error("write-miss entry must be dirty")
	}
}

func TestFVCInstallWriteMissInfrequentPanics(t *testing.T) {
	f := newTestFVC(t)
	defer func() {
		if recover() == nil {
			t.Error("InstallWriteMiss with infrequent value must panic")
		}
	}()
	f.InstallWriteMiss(0x1000, 99999)
}

func TestFVCConflictDisplacement(t *testing.T) {
	f := newTestFVC(t) // 4 entries, 16B lines: lines 0 and 4 conflict.
	f.InstallFootprint(0, []uint32{0, 0, 0, 0})
	prev := f.InstallFootprint(4, []uint32{1, 1, 1, 1})
	if !prev.Valid || prev.Tag != 0 {
		t.Errorf("displaced entry = %+v, want line 0", prev)
	}
	if p := f.Lookup(0x0); p.TagMatch {
		t.Error("displaced line must no longer match")
	}
	if p := f.Lookup(4 * 16); !p.TagMatch {
		t.Error("new line must match")
	}
}

func TestFVCInvalidate(t *testing.T) {
	f := newTestFVC(t)
	la := f.LineAddr(0x1000)
	f.InstallFootprint(la, []uint32{0, 1, 2, 4})
	e := f.Invalidate(0x1000)
	if !e.Valid || e.Tag != la {
		t.Fatalf("Invalidate = %+v", e)
	}
	if len(e.Codes) != 4 {
		t.Fatalf("snapshot codes = %v", e.Codes)
	}
	if p := f.Lookup(0x1000); p.TagMatch {
		t.Error("invalidated entry must miss")
	}
	if e2 := f.Invalidate(0x1000); e2.Valid {
		t.Error("second invalidate must find nothing")
	}
	// Absent line invalidate is a no-op.
	if e3 := f.Invalidate(0x9000); e3.Valid {
		t.Error("invalidate of absent line must return invalid entry")
	}
}

func TestFVCSnapshotIsolation(t *testing.T) {
	f := newTestFVC(t)
	la := f.LineAddr(0x1000)
	f.InstallFootprint(la, []uint32{0, 0, 0, 0})
	e := f.Invalidate(0x1000)
	e.Codes[0] = 9 // mutating the snapshot must not touch the cache
	f.InstallFootprint(la, []uint32{1, 1, 1, 1})
	if p := f.Lookup(0x1000); !p.WordFrequent || p.Value() != 1 {
		t.Errorf("snapshot mutation leaked into cache: %+v", p)
	}
}

func TestFVCFrequentFraction(t *testing.T) {
	f := newTestFVC(t)
	if f.FrequentFraction() != 0 {
		t.Error("empty FVC fraction must be 0")
	}
	f.InstallFootprint(0, []uint32{0, 1, 99999, 99999})     // 2/4 frequent
	f.InstallFootprint(1, []uint32{0, 99999, 99999, 99999}) // 1/4 frequent
	want := 3.0 / 8.0
	if got := f.FrequentFraction(); got != want {
		t.Errorf("FrequentFraction = %v, want %v", got, want)
	}
}

func TestFVCVisitValid(t *testing.T) {
	f := newTestFVC(t)
	f.InstallFootprint(0, []uint32{0, 0, 0, 0})
	f.InstallFootprint(1, []uint32{1, 1, 1, 1})
	var n int
	f.VisitValid(func(e Entry) {
		n++
		if !e.Valid {
			t.Error("VisitValid delivered invalid entry")
		}
	})
	if n != 2 {
		t.Errorf("VisitValid visited %d, want 2", n)
	}
}

func TestFVCMismatchedTableWidth(t *testing.T) {
	tbl := MustTable(2, []uint32{0})
	if _, err := New(Params{Entries: 4, LineBytes: 16, Bits: 3}, tbl); err == nil {
		t.Error("mismatched table width must be rejected")
	}
}

// Property: for random footprints, Lookup(word) is frequent iff the
// installed value is in the table, and decodes to exactly that value.
func TestFVCFootprintProperty(t *testing.T) {
	tbl := MustTable(3, []uint32{0, 1, 2, 3, 4, 5, 6})
	f := MustNew(Params{Entries: 8, LineBytes: 16, Bits: 3}, tbl)
	prop := func(lineAddr uint32, words [4]uint32) bool {
		la := lineAddr % 1024
		f.InstallFootprint(la, words[:])
		base := la * 16
		for i, v := range words {
			p := f.Lookup(base + uint32(i*4))
			if !p.TagMatch {
				return false
			}
			if tbl.Contains(v) != p.WordFrequent {
				return false
			}
			if p.WordFrequent && p.Value() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntryFrequentWords(t *testing.T) {
	e := Entry{Valid: true, Codes: []uint8{0, 7, 3, 7}}
	if got := e.FrequentWords(7); got != 2 {
		t.Errorf("FrequentWords = %d, want 2", got)
	}
}
