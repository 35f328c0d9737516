package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
)

// goldenModel is a deliberately naive, map-based re-implementation of
// the Section 3 protocol, storing FVC contents as explicit per-word
// values instead of codes. Differential testing against core.System
// catches protocol bugs that unit tests of either implementation would
// share.
type goldenModel struct {
	lineWords int
	numLines  int // direct-mapped main cache lines
	fvcSlots  int

	freq map[uint32]bool

	// main cache: set index -> line state
	main map[uint32]*gLine
	// fvc: slot index -> entry
	fvc map[uint32]*gEntry
	// architectural memory
	mem map[uint32]uint32

	noWriteAlloc bool
	skipEmpty    bool
}

type gLine struct {
	tag   uint32
	dirty bool
}

// gEntry stores, per word, either the value (frequent) or absent.
type gEntry struct {
	tag   uint32
	dirty bool
	word  []bool // word i holds a frequent value?
	val   []uint32
}

func newGolden(mainLines, lineWords, fvcSlots int, freq []uint32, noWriteAlloc, skipEmpty bool) *goldenModel {
	g := &goldenModel{
		lineWords:    lineWords,
		numLines:     mainLines,
		fvcSlots:     fvcSlots,
		freq:         map[uint32]bool{},
		main:         map[uint32]*gLine{},
		fvc:          map[uint32]*gEntry{},
		mem:          map[uint32]uint32{},
		noWriteAlloc: noWriteAlloc,
		skipEmpty:    skipEmpty,
	}
	for _, v := range freq {
		g.freq[v] = true
	}
	return g
}

func (g *goldenModel) lineAddr(addr uint32) uint32 { return addr / uint32(g.lineWords*4) }
func (g *goldenModel) wordIdx(addr uint32) int     { return int(addr/4) % g.lineWords }
func (g *goldenModel) setIdx(la uint32) uint32     { return la % uint32(g.numLines) }
func (g *goldenModel) slotIdx(la uint32) uint32    { return la % uint32(g.fvcSlots) }

// evictMain removes the line at set s (if any) and inserts its
// frequent footprint into the FVC (unless skipEmpty and it has no
// frequent word).
func (g *goldenModel) evictMain(s uint32) {
	ln, ok := g.main[s]
	if !ok {
		return
	}
	delete(g.main, s)
	// Footprint insertion (always, per the paper's default).
	e := &gEntry{tag: ln.tag, word: make([]bool, g.lineWords), val: make([]uint32, g.lineWords)}
	base := ln.tag * uint32(g.lineWords*4)
	any := false
	for i := 0; i < g.lineWords; i++ {
		v := g.mem[base+uint32(i*4)]
		if g.freq[v] {
			e.word[i] = true
			e.val[i] = v
			any = true
		}
	}
	if g.skipEmpty && !any {
		return
	}
	g.fvc[g.slotIdx(ln.tag)] = e
}

// fill brings la into the main cache, evicting as needed.
func (g *goldenModel) fill(la uint32, dirty bool) {
	s := g.setIdx(la)
	g.evictMain(s)
	g.main[s] = &gLine{tag: la, dirty: dirty}
}

// access returns whether the access hit (MainHit/FVCHit) per protocol.
func (g *goldenModel) access(store bool, addr, value uint32) HitSource {
	la := g.lineAddr(addr)
	wi := g.wordIdx(addr)
	defer func() {
		if store {
			g.mem[addr] = value
		}
	}()

	if ln, ok := g.main[g.setIdx(la)]; ok && ln.tag == la {
		if store {
			ln.dirty = true
		}
		return MainHit
	}
	e, ok := g.fvc[g.slotIdx(la)]
	if ok && e.tag == la {
		if !store && e.word[wi] {
			return FVCHit
		}
		if store && g.freq[value] {
			e.word[wi] = true
			e.val[wi] = value
			e.dirty = true
			return FVCHit
		}
		// Merge: line to main cache, FVC entry gone.
		wasDirty := e.dirty
		delete(g.fvc, g.slotIdx(la))
		g.fill(la, store || wasDirty)
		return Miss
	}
	if store && !g.noWriteAlloc && g.freq[value] {
		ne := &gEntry{tag: la, dirty: true, word: make([]bool, g.lineWords), val: make([]uint32, g.lineWords)}
		ne.word[wi] = true
		ne.val[wi] = value
		g.fvc[g.slotIdx(la)] = ne
		return FVCHit
	}
	g.fill(la, store)
	return Miss
}

// goldenFreq holds the frequent values of the differential tests: a
// code width's table is its first fvc.MaxValues(bits) entries.
// goldenPool adds values no table holds.
var (
	goldenFreq = []uint32{0, 1, 2, 4, 8, 10, 0xffffffff, 3, 5, 6, 7, 9, 11, 12, 13}
	goldenPool = append(append([]uint32(nil), goldenFreq...), 0xdeadbeef, 99, 77777, 1<<20)
)

// TestGoldenModelDifferential drives the golden model and a System
// through one random op stream per configuration and compares every
// access's HitSource: line sizes 8–64 B, code widths 1–4 (1 to 15
// frequent values) and the two ablations.
func TestGoldenModelDifferential(t *testing.T) {
	const (
		mainBytes = 512
		fvcSlots  = 8
	)
	type variant struct {
		name               string
		noAlloc, skipEmpty bool
	}
	variants := []variant{{"writeAlloc", false, false}, {"noWriteAlloc", true, false}, {"skipEmpty", false, true}}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			for _, lineBytes := range []int{8, 16, 32, 64} {
				for bits := 1; bits <= 4; bits++ {
					lineBytes, bits := lineBytes, bits
					t.Run(fmt.Sprintf("%dB/%db", lineBytes, bits), func(t *testing.T) {
						freq := goldenFreq[:fvc.MaxValues(bits)]
						sys := MustNew(Config{
							Main:                cache.Params{SizeBytes: mainBytes, LineBytes: lineBytes, Assoc: 1},
							FVC:                 &fvc.Params{Entries: fvcSlots, LineBytes: lineBytes, Bits: bits},
							FrequentValues:      freq,
							NoWriteMissAllocate: vr.noAlloc,
							SkipEmptyFootprints: vr.skipEmpty,
							VerifyValues:        true,
						})
						golden := newGolden(mainBytes/lineBytes, lineBytes/4, fvcSlots, freq, vr.noAlloc, vr.skipEmpty)

						rng := rand.New(rand.NewSource(int64(1234 + lineBytes*10 + bits)))
						replica := map[uint32]uint32{}
						for i := 0; i < 40_000; i++ {
							addr := uint32(rng.Intn(512)) * 4 // 2KB region
							var op trace.Op
							var v uint32
							if rng.Intn(2) == 0 {
								op, v = trace.Load, replica[addr]
							} else {
								// Skew stores toward this width's table so
								// lines hold frequent words.
								if rng.Intn(2) == 0 {
									v = freq[rng.Intn(len(freq))]
								} else {
									v = goldenPool[rng.Intn(len(goldenPool))]
								}
								op = trace.Store
								replica[addr] = v
							}
							got := sys.Access(op, addr, v)
							want := golden.access(op == trace.Store, addr, v)
							if got != want {
								t.Fatalf("access %d (%v %#x=%#x): system=%v golden=%v",
									i, op, addr, v, got, want)
							}
						}
						st := sys.Stats()
						if st.Hits()+st.Misses != st.Accesses() {
							t.Errorf("stats inconsistent: %+v", st)
						}
					})
				}
			}
		})
	}
}
