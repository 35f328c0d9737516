package sim

import (
	"context"
	"slices"
	"sync"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// batchConfigs spans the lane shapes the fused engine handles: fast
// direct-mapped lanes (plain, FVC, victim) and generic lanes
// (associative main cache, L2, online FVT sketch).
func batchConfigs(w workload.Workload) []core.Config {
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	fvt := Profiles.TopAccessed(w, workload.Test, 7)
	return []core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3}, FrequentValues: fvt},
		{Main: main, VictimEntries: 8},
		{Main: cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}},
		{Main: main, L2: &cache.Params{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4}},
		{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3}, OnlineFVTEvery: 100_000},
	}
}

// TestBatchReplayEquivalence is the fused engine's contract: for every
// registered workload, one batched pass over the shared recording
// yields bit-identical core.Stats to per-configuration replays, for
// every configuration shape.
func TestBatchReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := batchConfigs(w)
			batch, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(cfgs) {
				t.Fatalf("got %d results for %d configs", len(batch), len(cfgs))
			}
			for i, cfg := range cfgs {
				solo, err := MeasureRecorded(rec, cfg, MeasureOptions{})
				if err != nil {
					t.Fatalf("config %d: %v", i, err)
				}
				if batch[i].Stats != solo.Stats {
					t.Errorf("config %d: batch stats diverge\nbatch: %+v\nsolo:  %+v", i, batch[i].Stats, solo.Stats)
				}
			}
		})
	}
}

// TestBatchReplayEquivalenceHooks checks the fused hook path against
// the oracle: warmup exclusion, FVC content sampling and periodic
// audits must observe the same access boundaries, making every
// config's whole MeasureResult — not just Stats — identical.
func TestBatchReplayEquivalenceHooks(t *testing.T) {
	checkHooks(t, MeasureRecordedBatch)
}

// TestBatchReplayConcurrent replays the same shared recording from
// many goroutines at once through the batch engine (plus concurrent
// profile-cache use). Run under -race this pins the immutability
// contract: batches build private SystemSets over the recording and
// never mutate it.
func TestBatchReplayConcurrent(t *testing.T) {
	w, err := workload.Get("strproc")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchConfigs(w)
	want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const replayers = 8
	var wg sync.WaitGroup
	for g := 0; g < replayers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Profiles.TopAccessed(w, workload.Test, 7) // shared singleflight cache
			got, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("config %d: concurrent batch diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchReplayZeroAllocs pins the fused loop's allocation behavior:
// once the SystemSet is warm (shared pages materialized, cache frames
// filled), a full batched replay must not allocate at all — neither
// the bare ReplayColumns pass nor the driver's boundary loop
// (replaySpan) cutting it at every context check.
func TestBatchReplayZeroAllocs(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	set, err := core.NewSet([]core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3},
			FrequentValues: Profiles.TopAccessed(w, workload.Test, 7)},
		{Main: main, VictimEntries: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ops, addrs, vals := rec.AccessColumns()
	set.ReplayColumns(ops, addrs, vals) // warm: pages and frames exist now
	if allocs := testing.AllocsPerRun(3, func() { set.ReplayColumns(ops, addrs, vals) }); allocs > 0 {
		t.Errorf("steady-state batched replay allocated %.0f times per pass, want 0", allocs)
	}
	ctx := context.Background()
	oc := newOutcome(set)
	span := func() {
		if err := replaySpan(ctx, ops, addrs, vals, hooks{}, oc); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, span); allocs > 0 {
		t.Errorf("steady-state replaySpan allocated %.0f times per pass, want 0", allocs)
	}
}

// attributeMisses is the Figure 4 oracle: a System stepped access by
// access over the recording's access columns, counting its misses and
// those whose value is in values.
func attributeMisses(rec *trace.Recording, cfg core.Config, values []uint32) (total, attributed uint64, err error) {
	sys, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	ops, addrs, vals := rec.AccessColumns()
	for i, op := range ops {
		if sys.Access(op, addrs[i], vals[i]) == core.Miss {
			total++
			if slices.Contains(values, vals[i]) {
				attributed++
			}
		}
	}
	return total, attributed, nil
}

// TestMissAttributionSetsParity checks the multi-set attribution pass
// against the oracle, one pass per set, including an empty set and
// two sets that overlap.
func TestMissAttributionSetsParity(t *testing.T) {
	w, err := workload.Get("lispint")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Main: cache.Params{SizeBytes: 8 << 10, LineBytes: 16, Assoc: 1}}
	top := Profiles.TopAccessed(w, workload.Test, 10)
	sets := [][]uint32{
		top,
		{0, 1, 0xffffffff},
		{},
		top[:5],
		top[3:],
	}
	total, attr, err := MissAttributionSets(rec, cfg, sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, values := range sets {
		soloTotal, soloAttr, err := attributeMisses(rec, cfg, values)
		if err != nil {
			t.Fatal(err)
		}
		if soloTotal != total || soloAttr != attr[i] {
			t.Errorf("set %d: fused attribution diverges: total %d vs %d, attributed %d vs %d",
				i, total, soloTotal, attr[i], soloAttr)
		}
	}
	if attr[2] != 0 {
		t.Errorf("empty set attributed %d misses", attr[2])
	}
}

// TestProfileCacheSingleflight checks that concurrent profile requests
// for the same key share one histogram scan and one cached slice.
func TestProfileCacheSingleflight(t *testing.T) {
	w, err := workload.Get("goboard")
	if err != nil {
		t.Fatal(err)
	}
	var c ProfileCache
	const n = 8
	got := make([][]uint32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.TopAccessed(w, workload.Test, 7)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("request %d returned %d values, want %d", i, len(got[i]), len(got[0]))
		}
		if len(got[i]) > 0 && &got[i][0] != &got[0][0] {
			t.Fatalf("request %d returned a different backing array (no singleflight)", i)
		}
	}
	// Prefix reuse: a smaller k must come from the same cached scan.
	small := c.TopAccessed(w, workload.Test, 3)
	if len(small) > 0 && &small[0] != &got[0][0] {
		t.Error("smaller k did not reuse the cached profile")
	}
}

// TestParallelReplayEquivalence pins the deprecated Parallelism field
// as a no-op: for every registered workload and every configuration
// shape, a batch asking for any replay width returns the whole
// MeasureResult bit-identical to the default serial replay.
func TestParallelReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := batchConfigs(w)
			want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 4} {
				got, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{Parallelism: width})
				if err != nil {
					t.Fatalf("parallelism=%d: %v", width, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("parallelism=%d config %d: result diverges\ngot:  %+v\nwant: %+v",
							width, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestParallelReplayHookParity checks that a hooked replay (warmup
// exclusion, FVC sampling, audits, value verification) asking for a
// replay width still matches the oracle exactly.
func TestParallelReplayHookParity(t *testing.T) {
	for _, width := range []int{1, 3} {
		checkHooks(t, func(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
			opt.Parallelism = width
			return MeasureRecordedBatch(rec, cfgs, opt)
		})
	}
}
