package core

import (
	"math/rand"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
)

// refModel is a golden model of one hierarchy: it answers each access
// with the structure that should satisfy it.
type refModel interface {
	access(store bool, addr, value uint32) HitSource
}

// fuzzLanes is how many configurations one fuzz input draws; they are
// the lanes of one SystemSet.
const fuzzLanes = 3

// drawHierarchy decodes a valid configuration that a golden model
// covers, and that model. h picks the geometry every lane shares: line
// size 8–64 B (bits 0–1) and a 256 or 512 B main cache (bit 2). a's
// low two bits pick the lane's kind, its upper bits and b its
// parameters:
//   - 1: a direct-mapped main cache with a direct-mapped FVC of 2–16
//     entries, code width 1–4, either ablation and optional value
//     verification;
//   - 2: a direct-mapped main cache with a 1–8 line victim cache;
//   - 0 or 3: a plain main cache of 1–8 ways, capped at its line
//     count.
func drawHierarchy(h, a, b byte) (Config, refModel) {
	main := cache.Params{SizeBytes: 256 << (h >> 2 & 1), LineBytes: 8 << (h & 3), Assoc: 1}
	switch a & 3 {
	case 1:
		entries, bits := 2<<(a>>2&3), 1+int(b&3)
		freq := goldenFreq[:fvc.MaxValues(bits)]
		cfg := Config{
			Main:                main,
			FVC:                 &fvc.Params{Entries: entries, LineBytes: main.LineBytes, Bits: bits},
			FrequentValues:      freq,
			NoWriteMissAllocate: b&4 != 0,
			SkipEmptyFootprints: b&8 != 0,
			VerifyValues:        b&16 != 0,
		}
		return cfg, newGolden(main.NumLines(), main.WordsPerLine(), entries, freq,
			cfg.NoWriteMissAllocate, cfg.SkipEmptyFootprints)
	case 2:
		entries := 1 + int(a>>2&7)
		return Config{Main: main, VictimEntries: entries}, newGoldenVC(main.NumLines(), main.WordsPerLine(), entries)
	default:
		main.Assoc = min(1<<(a>>2&3), main.NumLines())
		return Config{Main: main}, newGoldenLRU(main)
	}
}

// fuzzOps decodes an event stream from raw, two bytes (x, y) per
// event and at most 1024 events. The word index is x plus 256 times
// y's low bit, taken modulo regionWords. y's next bit makes the event
// a store of goldenPool[(y>>2) % len(goldenPool)], except that y>>2 ==
// 63 makes it a heap allocation marker, which the hierarchy ignores.
// A load carries the value last stored to its word, as a recorded load
// does.
func fuzzOps(raw []byte, regionWords int) (ops []trace.Op, addrs, vals []uint32) {
	raw = raw[:min(len(raw), 2*1024)]
	replica := map[uint32]uint32{}
	for i := 0; i+1 < len(raw); i += 2 {
		x, y := raw[i], raw[i+1]
		addr := uint32((int(x)|int(y&1)<<8)%regionWords) * 4
		op, v := trace.Load, replica[addr]
		switch {
		case y>>2 == 63:
			op, v = trace.HeapAlloc, 0
		case y&2 != 0:
			op, v = trace.Store, goldenPool[int(y>>2)%len(goldenPool)]
			replica[addr] = v
		}
		ops, addrs, vals = append(ops, op), append(addrs, addr), append(vals, v)
	}
	return ops, addrs, vals
}

// FuzzHierarchyMatchesGolden checks the simulator against the golden
// models on drawn configurations and event streams. Each of the three
// drawn configurations must, as a solo System with value verification
// on, answer every access as its golden model does. As a lane of one
// SystemSet replayed through ReplayColumns in random chunk sizes, it
// must end with the golden model's hit and miss tallies and with Stats
// equal to the solo System's. A lane keeps its drawn VerifyValues, so
// FVC lanes run on the fused probe path as well as the generic one.
func FuzzHierarchyMatchesGolden(f *testing.F) {
	stream := make([]byte, 2*256)
	rand.New(rand.NewSource(5)).Read(stream)
	for i, shape := range [][]byte{
		{0x09, 5, 2, 0, 0, 14, 0},    // 16 B lines: FVC, direct-mapped, victim cache
		{0x09, 5, 22, 4, 0, 2, 0},    // verified FVC without write-miss allocation, 2-way
		{0x0e, 1, 8, 13, 3, 8, 0},    // 32 B lines: skip-empty FVC, 4-bit FVC, 4-way
		{0x13, 1, 13, 30, 0, 4, 0},   // 64 B lines: both ablations, 8-line victim cache, 2-way
		{0x18, 1, 0, 5, 17, 9, 7},    // 8 B lines: three FVC widths
		{0x1c, 0, 0, 4, 0, 12, 0},    // plain 1-, 2- and 8-way caches
		{0x0a, 9, 31, 10, 19, 13, 2}, // verified and fused FVCs side by side
	} {
		f.Add(shape, int64(i), stream)
	}
	f.Fuzz(checkHierarchy)
}

// checkHierarchy is one FuzzHierarchyMatchesGolden input: shape draws
// the lanes, seed the chunk sizes and raw the event stream.
func checkHierarchy(t *testing.T, shape []byte, seed int64, raw []byte) {
	// Short shapes read as zeros, so every input draws a config.
	shape = append(shape[:len(shape):len(shape)], make([]byte, 1+2*fuzzLanes)...)
	h := shape[0]
	ops, addrs, vals := fuzzOps(raw, 64<<(h>>3&3))

	cfgs := make([]Config, fuzzLanes)
	solo := make([]Stats, fuzzLanes)
	golden := make([]Stats, fuzzLanes)
	for l := range cfgs {
		cfg, ref := drawHierarchy(h, shape[1+2*l], shape[2+2*l])
		cfgs[l] = cfg
		verified := cfg
		verified.VerifyValues = true
		sys := MustNew(verified)
		g := &golden[l]
		for i, op := range ops {
			if !op.IsAccess() {
				continue
			}
			got := sys.Access(op, addrs[i], vals[i])
			want := ref.access(op == trace.Store, addrs[i], vals[i])
			if got != want {
				t.Fatalf("lane %d (%+v, FVC %+v) access %d (%v %#x=%#x): system=%v golden=%v",
					l, cfg, cfg.FVC, i, op, addrs[i], vals[i], got, want)
			}
			switch want {
			case MainHit:
				g.MainHits++
			case FVCHit:
				g.FVCHits++
			case VictimHit:
				g.VictimHits++
			default:
				g.Misses++
			}
		}
		solo[l] = sys.Stats()
	}

	set := MustNewSet(cfgs)
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < len(ops); {
		next := min(len(ops), n+1+rng.Intn(1<<rng.Intn(10)))
		set.ReplayColumns(ops[n:next], addrs[n:next], vals[n:next])
		n = next
	}
	for l, s := range set.Systems() {
		st, g := s.Stats(), golden[l]
		if st.MainHits != g.MainHits || st.FVCHits != g.FVCHits || st.VictimHits != g.VictimHits || st.Misses != g.Misses {
			t.Errorf("lane %d (%+v, FVC %+v): set tallies main/fvc/victim/miss %d/%d/%d/%d, golden %d/%d/%d/%d",
				l, cfgs[l], cfgs[l].FVC, st.MainHits, st.FVCHits, st.VictimHits, st.Misses,
				g.MainHits, g.FVCHits, g.VictimHits, g.Misses)
		}
		if st != solo[l] {
			t.Errorf("lane %d (%+v, FVC %+v): set stats diverge from the solo System\nset:  %+v\nsolo: %+v",
				l, cfgs[l], cfgs[l].FVC, st, solo[l])
		}
	}
}
