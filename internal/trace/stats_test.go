package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestStatsBasic(t *testing.T) {
	s := NewStats()
	s.Emit(Event{Op: Load, Addr: 0x100, Value: 1})
	s.Emit(Event{Op: Store, Addr: 0x200, Value: 2})
	s.Emit(Event{Op: Load, Addr: 0x100, Value: 1})
	s.Emit(Event{Op: HeapAlloc, Addr: 0x300, Value: 64}) // ignored
	if s.Loads != 2 || s.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 2/1", s.Loads, s.Stores)
	}
	if s.Accesses() != 3 {
		t.Errorf("Accesses() = %d, want 3", s.Accesses())
	}
	if s.MinAddr != 0x100 || s.MaxAddr != 0x200 {
		t.Errorf("addr range [%#x,%#x], want [0x100,0x200]", s.MinAddr, s.MaxAddr)
	}
	if s.UniqueAddrs() != 2 {
		t.Errorf("UniqueAddrs() = %d, want 2", s.UniqueAddrs())
	}
	if s.UniqueValues() != 2 {
		t.Errorf("UniqueValues() = %d, want 2", s.UniqueValues())
	}
	if s.Footprint() != 8 {
		t.Errorf("Footprint() = %d, want 8", s.Footprint())
	}
	if !strings.Contains(s.String(), "accesses=3") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestStatsMinAddrZeroStart(t *testing.T) {
	s := NewStats()
	s.Emit(Event{Op: Load, Addr: 0x500, Value: 0})
	s.Emit(Event{Op: Load, Addr: 0x400, Value: 0})
	if s.MinAddr != 0x400 {
		t.Errorf("MinAddr = %#x, want 0x400", s.MinAddr)
	}
}

func TestValueHistogramTopK(t *testing.T) {
	h := NewValueHistogram()
	emit := func(v uint32, n int) {
		for i := 0; i < n; i++ {
			h.Emit(Event{Op: Load, Value: v})
		}
	}
	emit(0, 50)
	emit(1, 30)
	emit(0xffffffff, 20)
	emit(7, 10)
	h.Emit(Event{Op: HeapAlloc, Value: 999}) // ignored

	if h.Total() != 110 {
		t.Fatalf("Total() = %d, want 110", h.Total())
	}
	if h.Distinct() != 4 {
		t.Fatalf("Distinct() = %d, want 4", h.Distinct())
	}
	if h.Count(0) != 50 {
		t.Errorf("Count(0) = %d, want 50", h.Count(0))
	}
	top := h.TopK(3)
	want := []ValueCount{{0, 50}, {1, 30}, {0xffffffff, 20}}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopK[%d] = %v, want %v", i, top[i], want[i])
		}
	}
	// k greater than distinct values clips.
	if got := len(h.TopK(10)); got != 4 {
		t.Errorf("TopK(10) returned %d entries, want 4", got)
	}
}

func TestValueHistogramCoverage(t *testing.T) {
	h := NewValueHistogram()
	if h.CoverageOfTopK(1) != 0 {
		t.Error("empty histogram coverage should be 0")
	}
	for i := 0; i < 80; i++ {
		h.Emit(Event{Op: Store, Value: 0})
	}
	for i := 0; i < 20; i++ {
		h.Emit(Event{Op: Store, Value: uint32(i + 1)})
	}
	if got := h.CoverageOfTopK(1); got != 0.8 {
		t.Errorf("CoverageOfTopK(1) = %v, want 0.8", got)
	}
	if got := h.CoverageOfTopK(1000); got != 1.0 {
		t.Errorf("CoverageOfTopK(all) = %v, want 1.0", got)
	}
}

func TestValueHistogramTieBreak(t *testing.T) {
	h := NewValueHistogram()
	h.Emit(Event{Op: Load, Value: 9})
	h.Emit(Event{Op: Load, Value: 3})
	h.Emit(Event{Op: Load, Value: 5})
	top := h.TopK(3)
	if top[0].Value != 3 || top[1].Value != 5 || top[2].Value != 9 {
		t.Errorf("ties must break by smaller value: %v", top)
	}
}

// TestTopKMatchesFullSort pins TopK's selection to the full sort it
// replaces, on random histograms whose counts tie heavily, for every k
// from 0 to two past the distinct count: the selection path and, for
// the larger histograms, the sort above maxSelectK.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, distinct := range []int{0, 1, 5, 17, 64, 65, 300} {
		h := NewValueHistogram()
		vals := make([]uint32, 0, 4*distinct)
		for i := 0; i < distinct; i++ {
			// Few counts over many values: most values tie with others.
			v := rng.Uint32()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				vals = append(vals, v)
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		h.AddValues(vals)

		var all []ValueCount
		h.counts.Each(func(v uint32, n uint64) { all = append(all, ValueCount{Value: v, Count: n}) })
		sort.Slice(all, func(i, j int) bool {
			if all[i].Count != all[j].Count {
				return all[i].Count > all[j].Count
			}
			return all[i].Value < all[j].Value
		})
		for k := 0; k <= h.Distinct()+2; k++ {
			want := all[:min(k, len(all))]
			if got := h.TopK(k); !slices.Equal(got, want) {
				t.Fatalf("distinct=%d: TopK(%d) = %v, want %v", h.Distinct(), k, got, want)
			}
		}
	}
}

// TestAddValuesMatchesEmit: counting a value column equals emitting
// each value as an access.
func TestAddValuesMatchesEmit(t *testing.T) {
	vals := []uint32{3, 0, 0, 7, 3, 0, 0xffffffff}
	col, emitted := NewValueHistogram(), NewValueHistogram()
	col.AddValues(vals)
	for _, v := range vals {
		emitted.Emit(Event{Op: Load, Value: v})
	}
	if col.Total() != emitted.Total() || !reflect.DeepEqual(col.TopK(10), emitted.TopK(10)) {
		t.Fatalf("AddValues: total %d top %v, Emit: total %d top %v",
			col.Total(), col.TopK(10), emitted.Total(), emitted.TopK(10))
	}
}
