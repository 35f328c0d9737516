package core

import (
	"math/rand"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/trace"
)

// goldenVC is a naive map/slice reference for the DMC+victim-cache
// protocol (Jouppi swap semantics).
type goldenVC struct {
	lineWords int
	numLines  int
	vcSize    int

	main map[uint32]*gLine // set -> line
	vc   []gvcEntry        // MRU-ordered, front = most recent
}

type gvcEntry struct {
	tag   uint32
	dirty bool
}

func newGoldenVC(mainLines, lineWords, vcSize int) *goldenVC {
	return &goldenVC{
		lineWords: lineWords,
		numLines:  mainLines,
		vcSize:    vcSize,
		main:      map[uint32]*gLine{},
	}
}

func (g *goldenVC) lineAddr(addr uint32) uint32 { return addr / uint32(g.lineWords*4) }
func (g *goldenVC) setIdx(la uint32) uint32     { return la % uint32(g.numLines) }

// vcProbe extracts the entry for la if present.
func (g *goldenVC) vcProbe(la uint32) (gvcEntry, bool) {
	for i, e := range g.vc {
		if e.tag == la {
			g.vc = append(g.vc[:i], g.vc[i+1:]...)
			return e, true
		}
	}
	return gvcEntry{}, false
}

// vcInsert adds an evicted main line, displacing LRU when full.
func (g *goldenVC) vcInsert(tag uint32, dirty bool) {
	g.vc = append([]gvcEntry{{tag: tag, dirty: dirty}}, g.vc...)
	if len(g.vc) > g.vcSize {
		g.vc = g.vc[:g.vcSize]
	}
}

func (g *goldenVC) evictToVC(s uint32) {
	if ln, ok := g.main[s]; ok {
		delete(g.main, s)
		g.vcInsert(ln.tag, ln.dirty)
	}
}

// access ignores value: the victim-cache protocol never reads one.
func (g *goldenVC) access(store bool, addr, _ uint32) HitSource {
	la := g.lineAddr(addr)
	s := g.setIdx(la)
	if ln, ok := g.main[s]; ok && ln.tag == la {
		if store {
			ln.dirty = true
		}
		return MainHit
	}
	if e, ok := g.vcProbe(la); ok {
		g.evictToVC(s)
		g.main[s] = &gLine{tag: la, dirty: e.dirty || store}
		return VictimHit
	}
	g.evictToVC(s)
	g.main[s] = &gLine{tag: la, dirty: store}
	return Miss
}

func TestGoldenVictimDifferential(t *testing.T) {
	const (
		mainBytes = 512
		lineBytes = 16
		vcEntries = 4
	)
	sys := MustNew(Config{
		Main:          cache.Params{SizeBytes: mainBytes, LineBytes: lineBytes, Assoc: 1},
		VictimEntries: vcEntries,
	})
	golden := newGoldenVC(mainBytes/lineBytes, lineBytes/4, vcEntries)

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 150_000; i++ {
		addr := uint32(rng.Intn(512)) * 4
		op := trace.Load
		if rng.Intn(3) == 0 {
			op = trace.Store
		}
		got := sys.Access(op, addr, 0)
		want := golden.access(op == trace.Store, addr, 0)
		if got != want {
			t.Fatalf("access %d (%v %#x): system=%v golden=%v", i, op, addr, got, want)
		}
	}
}

// goldenLRU is a per-set LRU-list reference for a plain main cache.
// The cache allocates on every miss, so loads and stores alike either
// hit or fill.
type goldenLRU struct {
	lineBytes uint32
	assoc     int
	sets      [][]uint32 // per set, line addresses in MRU order
}

func newGoldenLRU(p cache.Params) *goldenLRU {
	return &goldenLRU{lineBytes: uint32(p.LineBytes), assoc: p.Assoc, sets: make([][]uint32, p.NumSets())}
}

func (g *goldenLRU) access(_ bool, addr, _ uint32) HitSource {
	la := addr / g.lineBytes
	si := la % uint32(len(g.sets))
	src := Miss
	for j, tag := range g.sets[si] {
		if tag == la {
			src = MainHit
			g.sets[si] = append(g.sets[si][:j], g.sets[si][j+1:]...)
			break
		}
	}
	g.sets[si] = append([]uint32{la}, g.sets[si]...)
	if len(g.sets[si]) > g.assoc {
		g.sets[si] = g.sets[si][:g.assoc]
	}
	return src
}

// The set-associative main cache against the per-set LRU-list
// reference.
func TestGoldenSetAssocDifferential(t *testing.T) {
	p := cache.Params{SizeBytes: 1024, LineBytes: 16, Assoc: 4}
	sys := MustNew(Config{Main: p})
	golden := newGoldenLRU(p)

	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 150_000; i++ {
		addr := uint32(rng.Intn(1024)) * 4
		got := sys.Access(trace.Load, addr, 0)
		if want := golden.access(false, addr, 0); got != want {
			t.Fatalf("access %d (%#x): system=%v reference=%v", i, addr, got, want)
		}
	}
}
