package core

import (
	"math/rand"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
)

// paperTable is the FVT from the paper's Figure 7.
var paperValues = []uint32{0, 0xffffffff, 1, 2, 4, 8, 10}

func smallDMC() cache.Params { return cache.Params{SizeBytes: 64, LineBytes: 16, Assoc: 1} }

func newFVCSystem(t *testing.T) *System {
	t.Helper()
	return MustNew(Config{
		Main:           smallDMC(),
		FVC:            &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3},
		FrequentValues: paperValues,
		VerifyValues:   true,
	})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Main: smallDMC()}
	if err := good.Validate(); err != nil {
		t.Errorf("plain DMC config rejected: %v", err)
	}
	bad := []Config{
		{Main: cache.Params{SizeBytes: 0, LineBytes: 16, Assoc: 1}},
		{Main: smallDMC(), FVC: &fvc.Params{Entries: 4, LineBytes: 32, Bits: 3}, FrequentValues: paperValues}, // line mismatch
		{Main: smallDMC(), FVC: &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3}},                              // no values
		{Main: smallDMC(), FVC: &fvc.Params{Entries: 0, LineBytes: 16, Bits: 3}, FrequentValues: paperValues},
		{Main: smallDMC(), FVC: &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3}, FrequentValues: paperValues, VictimEntries: 4},
		{Main: smallDMC(), VictimEntries: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewTruncatesValueList(t *testing.T) {
	// 1-bit FVC can exploit only the single most frequent value.
	s := MustNew(Config{
		Main:           smallDMC(),
		FVC:            &fvc.Params{Entries: 4, LineBytes: 16, Bits: 1},
		FrequentValues: paperValues,
	})
	if got := s.FVC().Table().Len(); got != 1 {
		t.Errorf("1-bit table holds %d values, want 1", got)
	}
}

func TestPlainDMCHitMiss(t *testing.T) {
	s := MustNew(Config{Main: smallDMC()})
	if src := s.Access(trace.Load, 0x1000, 0); src != Miss {
		t.Errorf("cold access = %v, want miss", src)
	}
	if src := s.Access(trace.Load, 0x1004, 0); src != MainHit {
		t.Errorf("same-line access = %v, want main hit", src)
	}
	st := s.Stats()
	if st.Loads != 2 || st.Misses != 1 || st.MainHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LineFetches != 1 || st.TrafficWords != 4 {
		t.Errorf("traffic: fetches=%d words=%d, want 1/4", st.LineFetches, st.TrafficWords)
	}
	if st.MissRate() != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", st.MissRate())
	}
}

func TestDirtyWriteback(t *testing.T) {
	s := MustNew(Config{Main: smallDMC()})
	s.Access(trace.Store, 0x1000, 42) // miss, fetch, dirty
	s.Access(trace.Load, 0x1040, 0)   // conflict: evicts dirty line
	st := s.Stats()
	if st.LineWritebacks != 1 {
		t.Errorf("LineWritebacks = %d, want 1", st.LineWritebacks)
	}
	// Traffic: 2 fetches + 1 writeback = 3 lines of 4 words.
	if st.TrafficWords != 12 {
		t.Errorf("TrafficWords = %d, want 12", st.TrafficWords)
	}
	if st.TrafficBytes() != 48 {
		t.Errorf("TrafficBytes = %d, want 48", st.TrafficBytes())
	}
}

func TestFVCHitAfterEviction(t *testing.T) {
	s := newFVCSystem(t)
	s.Access(trace.Load, 0x1000, 0) // miss, fetch line (all zero words)
	s.Access(trace.Load, 0x1040, 0) // conflict miss: line 0x1000 evicted, footprint -> FVC
	if src := s.Access(trace.Load, 0x1000, 0); src != FVCHit {
		t.Errorf("re-read of frequent word = %v, want FVC hit", src)
	}
	st := s.Stats()
	if st.FVCHits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFVCMissOnInfrequentWord(t *testing.T) {
	s := newFVCSystem(t)
	s.Access(trace.Store, 0x1004, 99999) // miss (infrequent store), fetch, dirty word
	s.Access(trace.Load, 0x1040, 0)      // evicts line: footprint has word 1 infrequent
	// The footprint tag-matches but word 1 is marked infrequent.
	if src := s.Access(trace.Load, 0x1004, 99999); src != Miss {
		t.Errorf("read of infrequent word = %v, want miss", src)
	}
	// The line is now back in the main cache and the FVC entry is gone.
	if src := s.Access(trace.Load, 0x1004, 99999); src != MainHit {
		t.Errorf("re-read = %v, want main hit", src)
	}
	if s.CachedInBoth(0x1004) {
		t.Error("exclusivity violated")
	}
}

func TestFVCWriteHitUpdatesValue(t *testing.T) {
	s := newFVCSystem(t)
	s.Access(trace.Load, 0x1000, 0) // line of zeros into DMC
	s.Access(trace.Load, 0x1040, 0) // evict -> footprint (all frequent)
	if src := s.Access(trace.Store, 0x1008, 2); src != FVCHit {
		t.Errorf("frequent store with tag match = %v, want FVC hit", src)
	}
	if src := s.Access(trace.Load, 0x1008, 2); src != FVCHit {
		t.Errorf("read back = %v, want FVC hit", src)
	}
	if got := s.MemWord(0x1008); got != 2 {
		t.Errorf("replica = %d, want 2", got)
	}
}

func TestFVCInfrequentStoreWithTagMatchFetches(t *testing.T) {
	s := newFVCSystem(t)
	s.Access(trace.Load, 0x1000, 0)
	s.Access(trace.Load, 0x1040, 0)  // footprint of line 0x1000 in FVC
	s.Access(trace.Store, 0x1004, 1) // FVC write hit, entry dirty
	before := s.Stats().LineFetches
	if src := s.Access(trace.Store, 0x1008, 99999); src != Miss {
		t.Errorf("infrequent store with tag match = %v, want miss", src)
	}
	if got := s.Stats().LineFetches; got != before+1 {
		t.Errorf("fetches = %d, want %d (line brought from memory)", got, before+1)
	}
	// FVC entry must be gone; line lives in main cache now.
	if s.FVC().Lookup(0x1000).TagMatch {
		t.Error("FVC entry must be invalidated after merge")
	}
	if src := s.Access(trace.Load, 0x1004, 1); src != MainHit {
		t.Errorf("merged word read = %v, want main hit (value survived merge)", src)
	}
	if got := s.MemWord(0x1004); got != 1 {
		t.Errorf("merged value = %d, want 1", got)
	}
}

func TestWriteMissAllocation(t *testing.T) {
	s := newFVCSystem(t)
	before := s.Stats().LineFetches
	if src := s.Access(trace.Store, 0x2000, 4); src != FVCHit {
		t.Errorf("frequent-value write miss = %v, want FVC hit (allocated, miss eliminated)", src)
	}
	st := s.Stats()
	if st.WriteMissAllocs != 1 {
		t.Errorf("WriteMissAllocs = %d, want 1", st.WriteMissAllocs)
	}
	if st.LineFetches != before {
		t.Error("write-miss allocation must not fetch the line")
	}
	if src := s.Access(trace.Load, 0x2000, 4); src != FVCHit {
		t.Errorf("read back = %v, want FVC hit", src)
	}
	// Other words of the line are marked infrequent: reading one misses.
	if src := s.Access(trace.Load, 0x2004, 0); src != Miss {
		t.Errorf("other word = %v, want miss", src)
	}
}

func TestNoWriteMissAllocateAblation(t *testing.T) {
	s := MustNew(Config{
		Main:                smallDMC(),
		FVC:                 &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3},
		FrequentValues:      paperValues,
		NoWriteMissAllocate: true,
	})
	s.Access(trace.Store, 0x2000, 4)
	st := s.Stats()
	if st.WriteMissAllocs != 0 {
		t.Error("ablation must disable write-miss allocation")
	}
	if st.LineFetches != 1 {
		t.Errorf("fetches = %d, want 1 (normal write-allocate)", st.LineFetches)
	}
}

func TestSkipEmptyFootprintsAblation(t *testing.T) {
	s := MustNew(Config{
		Main:                smallDMC(),
		FVC:                 &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3},
		FrequentValues:      []uint32{123456},
		SkipEmptyFootprints: true,
	})
	s.Access(trace.Load, 0x1000, 0) // zeros are NOT frequent in this table
	s.Access(trace.Load, 0x1040, 0) // evict; footprint all-infrequent -> skipped
	if s.FVC().ValidEntries() != 0 {
		t.Error("empty footprint must be skipped under the ablation")
	}
}

func TestFVCDirtyDisplacementWritesBackWords(t *testing.T) {
	s := newFVCSystem(t)
	s.Access(trace.Load, 0x1000, 0)
	s.Access(trace.Load, 0x1040, 0)  // footprint of line 0x1000 (4 frequent words)
	s.Access(trace.Store, 0x1004, 1) // dirty the FVC entry
	// Force displacement of the FVC entry: evict line 0x1080 whose
	// footprint maps to the same FVC index (entries=4 -> lineAddr&3;
	// lines 0x100, 0x104, 0x108 all map to index 0).
	s.Access(trace.Load, 0x1080, 0)
	s.Access(trace.Load, 0x10c0, 0) // hmm: evicts 0x1080? DMC has 4 lines; see below
	// Force a conflict eviction of line 0x1080 from the DMC: address
	// 0x1080+64 = 0x10c0 shares DMC set ((0x108>>0)&3 == (0x10c)&3? )
	st := s.Stats()
	if st.FVCWritebackWords == 0 {
		t.Errorf("dirty FVC displacement must write back words: %+v", st)
	}
}

func TestVictimCacheSwap(t *testing.T) {
	s := MustNew(Config{Main: smallDMC(), VictimEntries: 4})
	s.Access(trace.Load, 0x1000, 0)
	s.Access(trace.Load, 0x1040, 0) // evicts 0x1000 into VC
	if src := s.Access(trace.Load, 0x1000, 0); src != VictimHit {
		t.Errorf("VC probe = %v, want victim hit", src)
	}
	// Swap means 0x1040 is now in the VC.
	if src := s.Access(trace.Load, 0x1040, 0); src != VictimHit {
		t.Errorf("swapped line = %v, want victim hit", src)
	}
	st := s.Stats()
	if st.VictimHits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Victim hits must not refetch from memory.
	if st.LineFetches != 2 {
		t.Errorf("LineFetches = %d, want 2", st.LineFetches)
	}
}

func TestVictimCacheDirtyDisplacement(t *testing.T) {
	s := MustNew(Config{Main: smallDMC(), VictimEntries: 1})
	s.Access(trace.Store, 0x1000, 1) // dirty line
	s.Access(trace.Load, 0x1040, 0)  // dirty 0x1000 -> VC
	s.Access(trace.Load, 0x1080, 0)  // 0x1040 -> VC, displacing dirty 0x1000
	st := s.Stats()
	if st.LineWritebacks != 1 {
		t.Errorf("LineWritebacks = %d, want 1 (displaced dirty VC line)", st.LineWritebacks)
	}
}

func TestEmitIgnoresAllocEvents(t *testing.T) {
	s := MustNew(Config{Main: smallDMC()})
	s.Emit(trace.Event{Op: trace.HeapAlloc, Addr: 0x1000, Value: 64})
	if s.Stats().Accesses() != 0 {
		t.Error("alloc events must not count as accesses")
	}
	s.Emit(trace.Event{Op: trace.Load, Addr: 0x1000, Value: 0})
	if s.Stats().Accesses() != 1 {
		t.Error("access events must drive the hierarchy")
	}
}

func TestHitSourceString(t *testing.T) {
	want := map[HitSource]string{Miss: "miss", MainHit: "main", FVCHit: "fvc", VictimHit: "victim", HitSource(9): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// Random-workload property: exclusivity holds after every access, stats
// are consistent, and all value verification passes (VerifyValues
// panics on any divergence).
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := MustNew(Config{
		Main:           cache.Params{SizeBytes: 256, LineBytes: 16, Assoc: 1},
		FVC:            &fvc.Params{Entries: 8, LineBytes: 16, Bits: 3},
		FrequentValues: paperValues,
		VerifyValues:   true,
	})
	replica := make(map[uint32]uint32)
	valuePool := []uint32{0, 0xffffffff, 1, 2, 4, 8, 10, 99999, 0xdeadbeef, 7, 13}
	const n = 20000
	for i := 0; i < n; i++ {
		addr := uint32(rng.Intn(512)) * 4 // 2KB region: 8x cache capacity
		if rng.Intn(2) == 0 {
			s.Access(trace.Load, addr, replica[addr])
		} else {
			v := valuePool[rng.Intn(len(valuePool))]
			s.Access(trace.Store, addr, v)
			replica[addr] = v
		}
		if i%97 == 0 && s.CachedInBoth(addr) {
			t.Fatalf("exclusivity violated at access %d addr %#x", i, addr)
		}
	}
	st := s.Stats()
	if st.Accesses() != n {
		t.Errorf("accesses = %d, want %d", st.Accesses(), n)
	}
	if st.Hits()+st.Misses != n {
		t.Errorf("hits %d + misses %d != %d", st.Hits(), st.Misses, n)
	}
	if st.FVCHits == 0 {
		t.Error("random workload with frequent values should produce FVC hits")
	}
	// Replica agreement at the end.
	for addr, v := range replica {
		if got := s.MemWord(addr); got != v {
			t.Errorf("replica divergence at %#x: %#x != %#x", addr, got, v)
		}
	}
}

// An FVC must never make the miss count worse than a plain DMC by more
// than the write-miss-allocation effect; with allocation disabled it
// can only help or equal. (The paper's first design goal.)
func TestFVCNeverHurtsWithoutAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := MustNew(Config{Main: cache.Params{SizeBytes: 128, LineBytes: 16, Assoc: 1}})
	aug := MustNew(Config{
		Main:                cache.Params{SizeBytes: 128, LineBytes: 16, Assoc: 1},
		FVC:                 &fvc.Params{Entries: 8, LineBytes: 16, Bits: 3},
		FrequentValues:      paperValues,
		NoWriteMissAllocate: true,
	})
	replica := make(map[uint32]uint32)
	for i := 0; i < 30000; i++ {
		addr := uint32(rng.Intn(256)) * 4
		var op trace.Op
		var v uint32
		if rng.Intn(2) == 0 {
			op, v = trace.Load, replica[addr]
		} else {
			op, v = trace.Store, []uint32{0, 1, 2, 0xabcd, 77}[rng.Intn(5)]
			replica[addr] = v
		}
		base.Access(op, addr, v)
		aug.Access(op, addr, v)
	}
	if aug.Stats().Misses > base.Stats().Misses {
		t.Errorf("FVC increased misses: %d > %d", aug.Stats().Misses, base.Stats().Misses)
	}
}

// TestStatsMinus pins the field-by-field difference the measurement
// driver uses to exclude warm-up accesses.
func TestStatsMinus(t *testing.T) {
	a := Stats{Loads: 10, Stores: 5, MainHits: 7, Misses: 8, TrafficWords: 100, L2Hits: 3}
	b := Stats{Loads: 1, Stores: 2, MainHits: 3, Misses: 4, TrafficWords: 50, L2Hits: 1}
	want := Stats{Loads: 9, Stores: 3, MainHits: 4, Misses: 4, TrafficWords: 50, L2Hits: 2}
	if got := a.Minus(b); got != want {
		t.Fatalf("Minus = %+v, want %+v", got, want)
	}
	if got := a.Minus(Stats{}); got != a {
		t.Fatalf("Minus(zero) = %+v, want %+v", got, a)
	}
}
