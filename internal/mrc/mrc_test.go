package mrc

import (
	"context"
	"reflect"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

const testLine = 32

// equivOptions spans the model shapes the ISSUE's equivalence gate
// names: the fully-associative ladder plus direct-mapped and
// set-associative per-set curves.
func equivOptions() Options {
	return Options{
		LineBytes:    testLine,
		MaxSizeBytes: 64 << 10,
		// 1 = fully associative; 8..512 cover the direct-mapped size
		// ladder (assoc-1 points) and the set-associative families.
		SetCounts: []int{1, 8, 32, 64, 128, 512},
	}
}

// TestMRCReplayEquivalence is the engine's contract: every point of
// every curve must carry the exact miss count a fused replay of that
// geometry produces, for all registered workloads.
func TestMRCReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := sim.Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Analyze(rec, equivOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Every curve point names a concrete LRU geometry; replay
			// them all in one fused batch and compare miss counts.
			var cfgs []core.Config
			var want []Point
			for _, c := range res.Curves {
				for _, p := range c.Points {
					cfgs = append(cfgs, core.Config{Main: cache.Params{
						SizeBytes: p.SizeBytes, LineBytes: testLine, Assoc: p.Assoc,
					}})
					want = append(want, p)
				}
			}
			batch, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range want {
				st := batch[i].Stats
				if st.Misses != p.Misses {
					t.Errorf("%s: mrc misses %d, replay %d",
						cfgs[i].Main.String(), p.Misses, st.Misses)
				}
				if got := st.Loads + st.Stores; got != res.Accesses {
					t.Errorf("%s: accesses %d, replay %d", cfgs[i].Main.String(), res.Accesses, got)
				}
				if st.Loads != res.Loads || st.Stores != res.Stores {
					t.Errorf("load/store split: mrc %d/%d, replay %d/%d",
						res.Loads, res.Stores, st.Loads, st.Stores)
				}
			}
		})
	}
}

// TestMRCShardedMatchesSerial pins the set-range sharding: fanned-out
// shards must reproduce the one-task-per-model pass bit for bit,
// including shard counts that do not divide the set counts.
func TestMRCShardedMatchesSerial(t *testing.T) {
	for _, w := range workload.All()[:4] {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := sim.Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Analyze(rec, equivOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 7} {
				opt := equivOptions()
				opt.Shards = shards
				sharded, err := Analyze(rec, opt)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(serial, sharded) {
					t.Errorf("shards=%d diverges from serial\nserial:  %+v\nsharded: %+v",
						shards, serial, sharded)
				}
			}
		})
	}
}

// TestMRCDegenerateTraces covers the edge shapes the ISSUE lists:
// empty, single-access, and all-same-line recordings.
func TestMRCDegenerateTraces(t *testing.T) {
	opt := Options{LineBytes: testLine, MaxSizeBytes: 1 << 10, SetCounts: []int{1, 4}}

	t.Run("empty", func(t *testing.T) {
		res, err := Analyze(&trace.Recording{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != 0 || res.DistinctLines != 0 {
			t.Fatalf("empty trace: %+v", res)
		}
		for _, c := range res.Curves {
			for _, p := range c.Points {
				if p.Misses != 0 || p.MissRatio != 0 {
					t.Errorf("sets=%d size=%d: %+v", c.Sets, p.SizeBytes, p)
				}
			}
		}
	})

	t.Run("single-access", func(t *testing.T) {
		var rec trace.Recording
		rec.Append(trace.Load, 0x40, 7)
		res, err := Analyze(&rec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != 1 || res.Loads != 1 || res.Stores != 0 || res.DistinctLines != 1 {
			t.Fatalf("single access: %+v", res)
		}
		for _, c := range res.Curves {
			for _, p := range c.Points {
				if p.Misses != 1 || p.MissRatio != 1 {
					t.Errorf("sets=%d size=%d: compulsory miss expected, got %+v", c.Sets, p.SizeBytes, p)
				}
			}
		}
	})

	t.Run("all-same-line", func(t *testing.T) {
		var rec trace.Recording
		const n = 1000
		for i := 0; i < n; i++ {
			// Different words, one line: stays inside [0x100, 0x100+32).
			rec.Append(trace.Store, 0x100+uint32(i%8)*trace.WordBytes, uint32(i))
		}
		res, err := Analyze(&rec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != n || res.Stores != n || res.DistinctLines != 1 {
			t.Fatalf("same-line trace: %+v", res)
		}
		for _, c := range res.Curves {
			for _, p := range c.Points {
				if p.Misses != 1 {
					t.Errorf("sets=%d size=%d: want the 1 compulsory miss, got %d",
						c.Sets, p.SizeBytes, p.Misses)
				}
			}
		}
	})
}

// TestMRCValidation is the 4xx-shaped error table for Options.
func TestMRCValidation(t *testing.T) {
	var rec trace.Recording
	rec.Append(trace.Load, 0, 0)
	cases := []struct {
		name string
		opt  Options
	}{
		{"zero line", Options{}},
		{"non-pow2 line", Options{LineBytes: 24}},
		{"line below word", Options{LineBytes: 2}},
		{"non-pow2 sets", Options{LineBytes: 32, SetCounts: []int{3}}},
		{"zero sets", Options{LineBytes: 32, SetCounts: []int{0}}},
		{"sets above max", Options{LineBytes: 32, MaxSizeBytes: 1 << 10, SetCounts: []int{64}}},
		{"max below line", Options{LineBytes: 64, MaxSizeBytes: 32}},
		{"non-pow2 maxassoc", Options{LineBytes: 32, MaxAssoc: 3}},
		{"negative maxassoc", Options{LineBytes: 32, MaxAssoc: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Analyze(&rec, tc.opt); err == nil {
				t.Errorf("Analyze(%+v) accepted invalid options", tc.opt)
			}
		})
	}
}

// TestMRCCancellation: a canceled context stops the pass at the next
// segment boundary, on the stack loop (one shard and two) and on the
// direct-mapped loop.
func TestMRCCancellation(t *testing.T) {
	var rec trace.Recording
	for i := 0; i < 1000; i++ {
		rec.Append(trace.Load, uint32(i)*trace.WordBytes, 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ shards, maxAssoc int }{{1, 0}, {2, 0}, {1, 1}} {
		opt := Options{LineBytes: 32, SetCounts: []int{1, 4}, Ctx: ctx, Shards: tc.shards, MaxAssoc: tc.maxAssoc}
		if _, err := Analyze(&rec, opt); err == nil {
			t.Errorf("shards=%d maxAssoc=%d: canceled pass returned no error", tc.shards, tc.maxAssoc)
		}
	}
}

// TestMRCSteadyZeroAllocs pins the hot loop: once every line has been
// touched, feeding the stacks allocates nothing — the map, node pool
// and bank bottoms are all reused in place.
func TestMRCSteadyZeroAllocs(t *testing.T) {
	const sets, banks = 4, 6
	s := newStack(sets, banks)
	lines := make([]uint32, 512)
	for i := range lines {
		// A stride pattern with reuse at many depths.
		lines[i] = uint32((i * 17) % 192)
	}
	feed := func() {
		for _, ln := range lines {
			s.access(ln&(sets-1), ln)
		}
	}
	feed() // warm: all cold inserts happen here
	if n := testing.AllocsPerRun(50, feed); n != 0 {
		t.Fatalf("steady-state stack update allocates %v per run", n)
	}
}

// TestMRCMaxAssocOneMatchesFullLadder pins the direct-mapped fast
// path: the fused last-line-table engine (MaxAssoc 1) must reproduce
// the assoc-1 point of every Mattson-stack curve bit for bit, along
// with the trace-level totals.
func TestMRCMaxAssocOneMatchesFullLadder(t *testing.T) {
	opt := equivOptions()
	for _, w := range workload.All()[:6] {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := sim.Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Analyze(rec, opt)
			if err != nil {
				t.Fatal(err)
			}
			dmOpt := opt
			dmOpt.MaxAssoc = 1
			dm, err := Analyze(rec, dmOpt)
			if err != nil {
				t.Fatal(err)
			}
			if dm.Accesses != full.Accesses || dm.Loads != full.Loads ||
				dm.Stores != full.Stores || dm.DistinctLines != full.DistinctLines {
				t.Errorf("totals differ: dm %+v vs full accesses=%d loads=%d stores=%d distinct=%d",
					dm, full.Accesses, full.Loads, full.Stores, full.DistinctLines)
			}
			if len(dm.Curves) != len(full.Curves) {
				t.Fatalf("curve count %d, want %d", len(dm.Curves), len(full.Curves))
			}
			for i, c := range dm.Curves {
				if len(c.Points) != 1 {
					t.Fatalf("sets=%d: MaxAssoc=1 curve has %d points", c.Sets, len(c.Points))
				}
				if c.Points[0] != full.Curves[i].Points[0] {
					t.Errorf("sets=%d: dm point %+v, stack point %+v",
						c.Sets, c.Points[0], full.Curves[i].Points[0])
				}
			}
		})
	}
}

// TestMRCMaxAssocCapsLadder: a MaxAssoc cap above 1 trims every curve
// to the matching ladder prefix of the uncapped pass (stack engine).
func TestMRCMaxAssocCapsLadder(t *testing.T) {
	w := workload.All()[0]
	rec, err := sim.Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	opt := equivOptions()
	full, err := Analyze(rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxAssoc = 4
	capped, err := Analyze(rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range capped.Curves {
		want := full.Curves[i].Points
		if len(want) > 3 {
			want = want[:3] // assoc 1, 2, 4
		}
		if !reflect.DeepEqual(c.Points, want) {
			t.Errorf("sets=%d: capped %+v, want prefix %+v", c.Sets, c.Points, want)
		}
	}
}

// TestMRCDMSteadyZeroAllocs pins the fused direct-mapped loop: once
// every line is in the seen-set, feeding the tables allocates nothing.
func TestMRCDMSteadyZeroAllocs(t *testing.T) {
	models := []model{{sets: 4, banks: 1}, {sets: 16, banks: 1}, {sets: 64, banks: 1}}
	p := newDMPass(models)
	addrs := make([]uint32, 512)
	for i := range addrs {
		addrs[i] = uint32((i*17)%192) * testLine
	}
	feed := func() { p.feed(addrs, 5) }
	feed() // warm: all first touches recorded
	if n := testing.AllocsPerRun(50, feed); n != 0 {
		t.Fatalf("steady-state dm update allocates %v per run", n)
	}
}
