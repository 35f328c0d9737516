package memsim

import (
	"testing"
	"testing/quick"

	"fvcache/internal/trace"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if got := m.LoadWord(0x1234_5678 &^ 3); got != 0 {
		t.Errorf("unbacked load = %#x, want 0", got)
	}
	if m.PageCount() != 0 {
		t.Errorf("loads must not materialize pages, got %d", m.PageCount())
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x1000, 0xdeadbeef)
	if got := m.LoadWord(0x1000); got != 0xdeadbeef {
		t.Errorf("LoadWord = %#x, want 0xdeadbeef", got)
	}
	// Neighboring word untouched.
	if got := m.LoadWord(0x1004); got != 0 {
		t.Errorf("neighbor = %#x, want 0", got)
	}
	if m.PageCount() != 1 {
		t.Errorf("PageCount = %d, want 1", m.PageCount())
	}
}

func TestMemoryStoreLoadProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint32) bool {
		a := addr &^ 3
		m.StoreWord(a, v)
		return m.LoadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryPageBoundary(t *testing.T) {
	m := NewMemory()
	// Last word of one page and first word of the next.
	m.StoreWord(0x0fff_c000+4092, 1)
	m.StoreWord(0x0fff_c000+4096, 2)
	if m.LoadWord(0x0fff_c000+4092) != 1 || m.LoadWord(0x0fff_c000+4096) != 2 {
		t.Error("page boundary words interfere")
	}
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

// TestByteImage checks the byte image against a map: unwritten words
// read as the fill byte, on unbacked pages and on backed ones, and a
// line read sees every store, across pages far apart in the address
// space.
func TestByteImage(t *testing.T) {
	b := NewByteImage(7)
	want := map[uint32]uint8{}
	for i, addr := range []uint32{0, 4, 28, PageWords * 4, 0xfffffffc, 0x80001010} {
		b.Store(addr, uint8(i))
		want[addr] = uint8(i)
	}
	for _, base := range []uint32{0, 32, PageWords * 4, 0xffffffe0, 0x80001000, 0x40000000} {
		line := b.Line(base, 8)
		for w := range line {
			addr := base + uint32(w)*4
			exp, ok := want[addr]
			if !ok {
				exp = 7
			}
			if line[w] != exp {
				t.Errorf("byte at %#x = %d, want %d", addr, line[w], exp)
			}
		}
	}
}

func TestCheckAligned(t *testing.T) {
	CheckAligned(0x1000) // must not panic
	defer func() {
		if recover() == nil {
			t.Error("CheckAligned(0x1001) must panic")
		}
	}()
	CheckAligned(0x1001)
}

func TestEnvLoadStoreTraced(t *testing.T) {
	var buf trace.Buffer
	e := NewEnv(&buf)
	e.Store(0x0040_0000, 42)
	if got := e.Load(0x0040_0000); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	if e.Accesses() != 2 {
		t.Errorf("Accesses = %d, want 2", e.Accesses())
	}
	if buf.Len() != 2 {
		t.Fatalf("trace has %d events, want 2", buf.Len())
	}
	if buf.Events[0] != (trace.Event{Op: trace.Store, Addr: 0x0040_0000, Value: 42}) {
		t.Errorf("store event = %v", buf.Events[0])
	}
	if buf.Events[1] != (trace.Event{Op: trace.Load, Addr: 0x0040_0000, Value: 42}) {
		t.Errorf("load event = %v", buf.Events[1])
	}
}

func TestEnvNilSink(t *testing.T) {
	e := NewEnv(nil)
	e.Store(HeapBase, 7) // must not panic
	if e.Load(HeapBase) != 7 {
		t.Error("nil-sink env must still simulate memory")
	}
}

func TestEnvFloat(t *testing.T) {
	e := NewEnv(nil)
	a := e.Static(1)
	e.StoreF(a, 3.25)
	if got := e.LoadF(a); got != 3.25 {
		t.Errorf("LoadF = %v, want 3.25", got)
	}
	// Zero float is the zero word — important for FVL of fp codes.
	b := e.Static(1)
	e.StoreF(b, 0)
	if got := e.Load(b); got != 0 {
		t.Errorf("float 0 stored as %#x, want 0", got)
	}
}

func TestEnvStatic(t *testing.T) {
	e := NewEnv(nil)
	a := e.Static(10)
	b := e.Static(1)
	if a != StaticBase {
		t.Errorf("first static at %#x, want %#x", a, StaticBase)
	}
	if b != a+40 {
		t.Errorf("second static at %#x, want %#x", b, a+40)
	}
}

func TestEnvStackFrames(t *testing.T) {
	var buf trace.Buffer
	e := NewEnv(&buf)
	f1 := e.PushFrame(4)
	if f1 != StackTop-16 {
		t.Errorf("frame1 at %#x, want %#x", f1, StackTop-16)
	}
	f2 := e.PushFrame(2)
	if f2 != f1-8 {
		t.Errorf("frame2 at %#x, want %#x", f2, f1-8)
	}
	if e.FrameDepth() != 2 {
		t.Errorf("FrameDepth = %d, want 2", e.FrameDepth())
	}
	e.PopFrame()
	e.PopFrame()
	if e.FrameDepth() != 0 {
		t.Errorf("FrameDepth after pops = %d", e.FrameDepth())
	}
	// Reuse: next frame lands at the same address (stack address reuse
	// drives the paper's per-allocation constant-address accounting).
	f3 := e.PushFrame(4)
	if f3 != f1 {
		t.Errorf("reused frame at %#x, want %#x", f3, f1)
	}
	// Event kinds in order: alloc, alloc, free, free, alloc.
	wantOps := []trace.Op{trace.StackAlloc, trace.StackAlloc, trace.StackFree, trace.StackFree, trace.StackAlloc}
	if buf.Len() != len(wantOps) {
		t.Fatalf("trace has %d events, want %d", buf.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if buf.Events[i].Op != op {
			t.Errorf("event %d op = %v, want %v", i, buf.Events[i].Op, op)
		}
	}
}

func TestEnvPopEmptyPanics(t *testing.T) {
	e := NewEnv(nil)
	defer func() {
		if recover() == nil {
			t.Error("PopFrame on empty stack must panic")
		}
	}()
	e.PopFrame()
}

func TestEnvHeapAllocFree(t *testing.T) {
	var buf trace.Buffer
	e := NewEnv(&buf)
	a := e.Alloc(2) // 8 bytes, class 8
	b := e.Alloc(2)
	if a == b {
		t.Fatal("two live blocks share an address")
	}
	if e.HeapLive() != 2 {
		t.Errorf("HeapLive = %d, want 2", e.HeapLive())
	}
	e.Store(a, 0x1234)
	e.Free(a)
	if e.HeapLive() != 1 {
		t.Errorf("HeapLive after free = %d, want 1", e.HeapLive())
	}
	// Freed block is scrubbed and reused for a same-class alloc.
	c := e.Alloc(1)
	if c != a {
		t.Errorf("free-list reuse: got %#x, want %#x", c, a)
	}
	if got := e.Load(c); got != 0 {
		t.Errorf("recycled block not scrubbed: %#x", got)
	}
}

func TestEnvHeapSizeClasses(t *testing.T) {
	e := NewEnv(nil)
	a := e.Alloc(3) // 12 bytes -> class 16
	b := e.Alloc(4) // 16 bytes -> class 16
	e.Free(a)
	c := e.Alloc(4) // same class, reuses a
	if c != a {
		t.Errorf("same-class reuse: got %#x, want %#x", c, a)
	}
	_ = b
}

func TestEnvDoubleFreePanics(t *testing.T) {
	e := NewEnv(nil)
	a := e.Alloc(1)
	e.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free must panic")
		}
	}()
	e.Free(a)
}

func TestEnvAllocZeroPanics(t *testing.T) {
	e := NewEnv(nil)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) must panic")
		}
	}()
	e.Alloc(0)
}

func TestRoundClass(t *testing.T) {
	cases := map[uint32]uint32{1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 100: 128, 4096: 4096}
	for in, want := range cases {
		if got := roundClass(in); got != want {
			t.Errorf("roundClass(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHeapSegmentBounds(t *testing.T) {
	e := NewEnv(nil)
	a := e.Alloc(1)
	if a < HeapBase || a >= HeapLimit {
		t.Errorf("heap alloc %#x outside [%#x,%#x)", a, HeapBase, HeapLimit)
	}
	f := e.PushFrame(1)
	if f >= StackTop || f < StackLimit {
		t.Errorf("stack frame %#x outside [%#x,%#x)", f, StackLimit, StackTop)
	}
}

func TestEnvHeapAllocEventSizes(t *testing.T) {
	var buf trace.Buffer
	e := NewEnv(&buf)
	e.Alloc(3) // rounds to 16 bytes
	if buf.Events[0].Op != trace.HeapAlloc || buf.Events[0].Size() != 16 {
		t.Errorf("alloc event = %v, want HeapAlloc size=16", buf.Events[0])
	}
}
