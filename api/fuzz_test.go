package api

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzValues is the fixed profile-derived table every Materialize call
// of FuzzConfigFingerprint receives.
var fuzzValues = []uint32{0, 1, 0xffffffff}

// FuzzConfigFingerprint checks the properties every cache and
// coalescing key relies on. Each input is a config plus one field
// rewrite (field, val), which yields a second config a small step
// away from the first:
//
//   - Normalized is idempotent;
//   - Validate never panics, raw or normalized;
//   - a normalized config's Fingerprint survives a JSON round trip;
//   - two normalized configs with equal fingerprints give
//     reflect.DeepEqual Materialize(fuzzValues).
func FuzzConfigFingerprint(f *testing.F) {
	f.Add(0, 0, 0, 0, 0, []byte(nil), uint64(0), 0, 0, 0, false, false, uint8(0), int64(0))
	f.Add(8192, 32, 2, 64, 0, []byte(nil), uint64(0), 0, 0, 0, false, false, uint8(4), int64(3))
	f.Add(16384, 64, 1, 512, 4, []byte{1, 0, 0, 0, 255, 255, 255, 255}, uint64(0), 0, 65536, 0, true, false, uint8(8), int64(4))
	f.Add(16384, 32, 1, 128, 3, []byte(nil), uint64(100000), 0, 0, 0, false, true, uint8(6), int64(0))
	// Without an FVC, Materialize used to pass OnlineFVTEvery through
	// while Fingerprint left it out: two keys-equal configs differed.
	f.Add(16384, 32, 1, 0, 0, []byte(nil), uint64(0), 0, 0, 0, false, false, uint8(6), int64(100000))
	// A negative victim count reached Materialize but not Fingerprint.
	f.Add(16384, 32, 1, 0, 0, []byte(nil), uint64(0), 0, 0, 0, false, false, uint8(7), int64(-1))
	f.Fuzz(func(t *testing.T, mainBytes, lineBytes, assoc, fvcEntries, fvcBits int, fv []byte,
		online uint64, victim, l2Bytes, l2Assoc int, nowma, skip bool, field uint8, val int64) {
		c := Config{
			MainBytes: mainBytes, LineBytes: lineBytes, Assoc: assoc,
			FVCEntries: fvcEntries, FVCBits: fvcBits, FrequentValues: fuzzWords(fv),
			OnlineFVTEvery: online, VictimEntries: victim,
			L2Bytes: l2Bytes, L2Assoc: l2Assoc,
			NoWriteMissAllocate: nowma, SkipEmptyFootprints: skip,
		}
		n := c.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized not idempotent:\nonce:  %+v\ntwice: %+v", n, again)
		}
		_ = c.Validate()
		_ = n.Validate()

		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != n.Fingerprint() {
			t.Fatalf("fingerprint changed over JSON: %q -> %q (%s)", n.Fingerprint(), back.Fingerprint(), data)
		}

		m := rewriteField(c, field, val).Normalized()
		if m.Fingerprint() != n.Fingerprint() {
			return
		}
		if a, b := n.Materialize(fuzzValues), m.Materialize(fuzzValues); !reflect.DeepEqual(a, b) {
			t.Fatalf("fingerprint %q shared by configs that materialize differently:\n%+v\n%+v",
				n.Fingerprint(), n, m)
		}
	})
}

// fuzzWords reads b as little-endian 32-bit words, nil when b holds
// fewer than four bytes.
func fuzzWords(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	w := make([]uint32, len(b)/4)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return w
}

// rewriteField returns c with one field, chosen by field, set from val.
func rewriteField(c Config, field uint8, val int64) Config {
	v := int(val)
	switch field % 12 {
	case 0:
		c.MainBytes = v
	case 1:
		c.LineBytes = v
	case 2:
		c.Assoc = v
	case 3:
		c.FVCEntries = v
	case 4:
		c.FVCBits = v
	case 5:
		if val == 0 {
			c.FrequentValues = nil
		} else {
			c.FrequentValues = append([]uint32{uint32(val)}, c.FrequentValues...)
		}
	case 6:
		c.OnlineFVTEvery = uint64(val)
	case 7:
		c.VictimEntries = v
	case 8:
		c.L2Bytes = v
	case 9:
		c.L2Assoc = v
	case 10:
		c.NoWriteMissAllocate = val&1 != 0
	case 11:
		c.SkipEmptyFootprints = val&1 != 0
	}
	return c
}
