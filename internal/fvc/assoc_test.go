package fvc

import "testing"

func TestParamsAssocValidate(t *testing.T) {
	good := []Params{
		{Entries: 512, LineBytes: 32, Bits: 3, Assoc: 2},
		{Entries: 512, LineBytes: 32, Bits: 3, Assoc: 4},
		{Entries: 8, LineBytes: 32, Bits: 3, Assoc: 8}, // fully associative
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{
		{Entries: 512, LineBytes: 32, Bits: 3, Assoc: -1},
		{Entries: 512, LineBytes: 32, Bits: 3, Assoc: 1024}, // > entries
		{Entries: 8, LineBytes: 32, Bits: 3, Assoc: 3},      // 8%3 != 0
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
	if got := (Params{Entries: 512, Assoc: 2}).Sets(); got != 256 {
		t.Errorf("Sets = %d, want 256", got)
	}
}

// A 2-way FVC holds two conflicting lines a direct-mapped one cannot.
func TestAssociativeFVCHoldsConflictingLines(t *testing.T) {
	tbl := MustTable(3, []uint32{0})
	// 4 entries, 2-way: 2 sets. Lines 0 and 2 map to set 0.
	f := MustNew(Params{Entries: 4, LineBytes: 16, Bits: 3, Assoc: 2}, tbl)
	zeros := []uint32{0, 0, 0, 0}
	f.InstallFootprint(0, zeros)
	f.InstallFootprint(2, zeros)
	if !f.Lookup(0*16).TagMatch || !f.Lookup(2*16).TagMatch {
		t.Fatal("2-way FVC must hold both conflicting lines")
	}
	// A direct-mapped FVC of the same size cannot.
	dm := MustNew(Params{Entries: 4, LineBytes: 16, Bits: 3}, tbl)
	dm.InstallFootprint(0, zeros)
	dm.InstallFootprint(4, zeros) // 4 & 3 == 0: conflicts in DM
	if dm.Lookup(0).TagMatch {
		t.Error("direct-mapped FVC must have displaced the first line")
	}
}

func TestAssociativeFVCLRU(t *testing.T) {
	tbl := MustTable(3, []uint32{0})
	f := MustNew(Params{Entries: 4, LineBytes: 16, Bits: 3, Assoc: 2}, tbl)
	zeros := []uint32{0, 0, 0, 0}
	f.InstallFootprint(0, zeros) // set 0, way A
	f.InstallFootprint(2, zeros) // set 0, way B
	f.Lookup(0)                  // Lookup does NOT refresh LRU (probe only)
	f.WriteWord(0, 0)            // but a write hit does
	displaced := f.InstallFootprint(4, zeros)
	if !displaced.Valid || displaced.Tag != 2 {
		t.Errorf("LRU displacement chose %+v, want line 2", displaced)
	}
	if !f.Lookup(0).TagMatch {
		t.Error("recently written line must survive")
	}
}

func TestAssociativeInvalidateAndWriteMiss(t *testing.T) {
	tbl := MustTable(3, []uint32{0, 5})
	f := MustNew(Params{Entries: 8, LineBytes: 16, Bits: 3, Assoc: 4}, tbl)
	f.InstallWriteMiss(0x100, 5)
	p := f.Lookup(0x100)
	if !p.WordFrequent || p.Value() != 5 {
		t.Fatalf("Lookup after write miss = %+v", p)
	}
	e := f.Invalidate(0x100)
	if !e.Valid || !e.Dirty {
		t.Errorf("Invalidate = %+v", e)
	}
	if f.Lookup(0x100).TagMatch {
		t.Error("invalidated line must miss")
	}
}
