package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/fvc"
	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// setConfigs spans every hierarchy shape the fused loop must handle:
// the fast direct-mapped lane, FVC and victim augmentations, and the
// slow lanes (associative main cache, L2, online sketch).
func setConfigs() []Config {
	main := cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1}
	fvt := []uint32{0, 1, 0xffffffff, 7, 42, 1024, 0x55aa}
	return []Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 64, LineBytes: 32, Bits: 3}, FrequentValues: fvt},
		{Main: main, VictimEntries: 8},
		{Main: cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 2}},
		{Main: main, L2: &cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 4}},
		{Main: main, FVC: &fvc.Params{Entries: 64, LineBytes: 32, Bits: 3}, OnlineFVTEvery: 5_000},
	}
}

// synthColumns generates a deterministic value-skewed access stream
// with non-access events sprinkled in (the fused loop must skip them
// exactly like the per-system loop does).
func synthColumns(n int) (ops []trace.Op, addrs, vals []uint32) {
	rng := rand.New(rand.NewSource(42))
	frequent := []uint32{0, 1, 0xffffffff, 7, 42, 1024, 0x55aa}
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		switch {
		case r < 2:
			ops = append(ops, trace.HeapAlloc)
			addrs = append(addrs, uint32(rng.Intn(1<<16))&^3)
			vals = append(vals, 64)
		case r < 35:
			ops = append(ops, trace.Store)
			addrs = append(addrs, uint32(rng.Intn(24<<10))&^3)
			if rng.Intn(100) < 60 {
				vals = append(vals, frequent[rng.Intn(len(frequent))])
			} else {
				vals = append(vals, rng.Uint32())
			}
		default:
			ops = append(ops, trace.Load)
			addrs = append(addrs, uint32(rng.Intn(24<<10))&^3)
			vals = append(vals, 0) // loads carry the loaded value; System ignores it on replay
		}
	}
	return ops, addrs, vals
}

// TestSystemSetParity is the SystemSet contract: replaying one stream
// through a set of K configurations yields bit-identical Stats to K
// independently replayed Systems, for every lane shape.
func TestSystemSetParity(t *testing.T) {
	cfgs := setConfigs()
	ops, addrs, vals := synthColumns(200_000)

	set := MustNewSet(cfgs)
	set.ReplayColumns(ops, addrs, vals)

	for i, cfg := range cfgs {
		solo, err := New(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		solo.ReplayColumns(ops, addrs, vals)
		if got, want := set.Systems()[i].Stats(), solo.Stats(); got != want {
			t.Errorf("config %d: set stats diverge from solo replay\nset:  %+v\nsolo: %+v", i, got, want)
		}
	}
}

// TestSystemSetSingleMemberParity checks the one-member set, which
// replays through its member's own System loop: for every lane shape,
// column replay and per-event Access must match a plain System, and
// the member must own the set's memory.
func TestSystemSetSingleMemberParity(t *testing.T) {
	ops, addrs, vals := synthColumns(50_000)
	for i, cfg := range setConfigs() {
		solo := MustNew(cfg)
		solo.ReplayColumns(ops, addrs, vals)

		fused := MustNewSet([]Config{cfg})
		fused.ReplayColumns(ops, addrs, vals)
		stepped := MustNewSet([]Config{cfg})
		for j, op := range ops {
			stepped.Access(op, addrs[j], vals[j])
		}
		for name, set := range map[string]*SystemSet{"columns": fused, "access": stepped} {
			if got, want := set.Systems()[0].Stats(), solo.Stats(); got != want {
				t.Errorf("config %d %s: one-member set diverges\nset:  %+v\nsolo: %+v", i, name, got, want)
			}
			if set.Systems()[0].mem != set.Memory() {
				t.Errorf("config %d %s: member does not own the set's memory image", i, name)
			}
		}
	}
}

// TestSystemSetChunkedParity checks that chunking the columns at
// arbitrary boundaries (how the batch engine realizes measurement
// hooks) leaves the final Stats identical to a single fused pass.
func TestSystemSetChunkedParity(t *testing.T) {
	cfgs := setConfigs()
	ops, addrs, vals := synthColumns(100_000)

	whole := MustNewSet(cfgs)
	whole.ReplayColumns(ops, addrs, vals)

	chunked := MustNewSet(cfgs)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < len(ops); {
		next := n + 1 + rng.Intn(9_000)
		if next > len(ops) {
			next = len(ops)
		}
		chunked.ReplayColumns(ops[n:next], addrs[n:next], vals[n:next])
		n = next
	}

	for i := range cfgs {
		if got, want := chunked.Systems()[i].Stats(), whole.Systems()[i].Stats(); got != want {
			t.Errorf("config %d: chunked stats diverge\nchunked: %+v\nwhole:   %+v", i, got, want)
		}
	}
}

// TestSystemSetAccessParity checks the per-event Access entry point
// against the fused column loop.
func TestSystemSetAccessParity(t *testing.T) {
	cfgs := setConfigs()
	ops, addrs, vals := synthColumns(50_000)

	fused := MustNewSet(cfgs)
	fused.ReplayColumns(ops, addrs, vals)

	stepped := MustNewSet(cfgs)
	for i, op := range ops {
		stepped.Access(op, addrs[i], vals[i])
	}

	for i := range cfgs {
		if got, want := stepped.Systems()[i].Stats(), fused.Systems()[i].Stats(); got != want {
			t.Errorf("config %d: Access-driven stats diverge\nstepped: %+v\nfused:   %+v", i, got, want)
		}
	}
}

// TestSystemSetAudit runs the full invariant audit over every member
// after a fused replay: sharing the memory image must not corrupt any
// member's protocol state.
func TestSystemSetAudit(t *testing.T) {
	cfgs := setConfigs()
	ops, addrs, vals := synthColumns(100_000)
	set := MustNewSet(cfgs)
	set.ReplayColumns(ops, addrs, vals)
	for i, s := range set.Systems() {
		if err := s.AuditInvariants(); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

// TestSystemSetRejectsBadConfig checks NewSet surfaces member
// construction errors.
func TestSystemSetRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Main: cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1}},
		{Main: cache.Params{SizeBytes: 3000, LineBytes: 32, Assoc: 1}},
	}
	if _, err := NewSet(bad); err == nil {
		t.Fatal("NewSet accepted an invalid member config")
	}
}

func BenchmarkSystemSetReplay(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
			cfgs := make([]Config, k)
			for i := range cfgs {
				cfgs[i] = Config{Main: main}
			}
			ops, addrs, vals := synthColumns(200_000)
			set := MustNewSet(cfgs)
			set.ReplayColumns(ops, addrs, vals) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.ReplayColumns(ops, addrs, vals)
			}
		})
	}
}

// runColumns generates a run-heavy stream: each step picks a line and
// makes up to 24 accesses to its words before moving on, so the fused
// loop's same-line run skipping carries most events. Stores favour
// the first values of frequent, so footprints hold frequent words.
func runColumns(n int, frequent []uint32) (ops []trace.Op, addrs, vals []uint32) {
	rng := rand.New(rand.NewSource(99))
	for len(ops) < n {
		line := uint32(rng.Intn(24<<10)) &^ 31
		for r := 1 + rng.Intn(24); r > 0; r-- {
			addr := line + uint32(rng.Intn(8))*4
			switch x := rng.Intn(100); {
			case x < 1:
				ops = append(ops, trace.StackAlloc)
				addrs = append(addrs, addr)
				vals = append(vals, 16)
			case x < 40:
				v := rng.Uint32()
				if rng.Intn(100) < 70 {
					v = frequent[rng.Intn(len(frequent))]
				}
				ops = append(ops, trace.Store)
				addrs = append(addrs, addr)
				vals = append(vals, v)
			default:
				ops = append(ops, trace.Load)
				addrs = append(addrs, addr)
				vals = append(vals, 0)
			}
		}
	}
	return ops[:n], addrs[:n], vals[:n]
}

// TestSystemSetRunsAndRanksParity checks the fused loop's shortcuts
// against solo Systems, which take none of them: same-line run
// skipping over several direct-mapped geometries of one line size,
// and footprints encoded from the shared rank image by lanes whose
// tables are prefixes of the longest one, including one whose table
// leaves codes of its width unused. A lane whose table is not
// such a prefix encodes words, and slow members (set-associative,
// one with an FVC) see every event. Whole, chunked and per-event
// Access replays must all give every lane the Stats of its solo
// System.
func TestSystemSetRunsAndRanksParity(t *testing.T) {
	top := []uint32{0, 1, 0xffffffff, 7, 42, 1024, 0x55aa, 3, 5, 9, 11, 13, 17, 19, 23}
	dm := func(kb int) cache.Params { return cache.Params{SizeBytes: kb << 10, LineBytes: 32, Assoc: 1} }
	withFV := func(main cache.Params, entries, bits int, vals []uint32) Config {
		return Config{Main: main, FVC: &fvc.Params{Entries: entries, LineBytes: 32, Bits: bits}, FrequentValues: vals}
	}
	skip := withFV(dm(8), 64, 3, top[:7])
	skip.SkipEmptyFootprints = true
	noAlloc := withFV(dm(2), 32, 2, top[:3])
	noAlloc.NoWriteMissAllocate = true
	twoWay := cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 2}
	cfgs := []Config{
		{Main: dm(4)},
		{Main: dm(8)},
		withFV(dm(4), 64, 1, top[:1]),
		withFV(dm(4), 64, 2, top[:3]),
		withFV(dm(8), 64, 3, top[:7]),
		skip,
		noAlloc,
		withFV(dm(2), 128, 4, top), // the longest table
		withFV(dm(4), 64, 2, []uint32{top[1], top[0], 99}), // not a prefix
		withFV(dm(8), 64, 3, top[:5]),                      // rank 5 is not the escape
		{Main: dm(4), VictimEntries: 8},
		{Main: twoWay},
		withFV(twoWay, 64, 3, top[:7]),
	}
	notPrefix := 8
	ops, addrs, vals := runColumns(150_000, top[:7])

	whole := MustNewSet(cfgs)
	if whole.ranks == nil {
		t.Fatal("no rank image for a set of prefix-table lanes")
	}
	for i, s := range whole.Systems() {
		if want := cfgs[i].FVC != nil && i != notPrefix; (s.ranks != nil) != want {
			t.Errorf("config %d: encodes from ranks %v, want %v", i, s.ranks != nil, want)
		}
	}
	var skipped uint64
	if obs.Enabled {
		skipped = obs.ProbeRunSkips.Load()
	}
	whole.ReplayColumns(ops, addrs, vals)
	if obs.Enabled && obs.ProbeRunSkips.Load() == skipped {
		t.Error("no event was answered by a same-line run")
	}

	chunked := MustNewSet(cfgs)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < len(ops); {
		next := min(len(ops), n+1+rng.Intn(5_000))
		chunked.ReplayColumns(ops[n:next], addrs[n:next], vals[n:next])
		n = next
	}

	stepped := MustNewSet(cfgs)
	for i, op := range ops {
		stepped.Access(op, addrs[i], vals[i])
	}

	for i, cfg := range cfgs {
		solo := MustNew(cfg)
		solo.ReplayColumns(ops, addrs, vals)
		want := solo.Stats()
		for name, set := range map[string]*SystemSet{"fused": whole, "chunked": chunked, "Access-driven": stepped} {
			if got := set.Systems()[i].Stats(); got != want {
				t.Errorf("config %d: %s stats diverge from solo replay\nset:  %+v\nsolo: %+v", i, name, got, want)
			}
		}
	}
}
