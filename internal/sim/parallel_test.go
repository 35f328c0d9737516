package sim

import (
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// parallelConfigs is batchConfigs minus the online-FVT shape (which
// the parallel engine rejects — covered by the fallback test).
func parallelConfigs(w workload.Workload) []core.Config {
	cfgs := batchConfigs(w)
	out := cfgs[:0:0]
	for _, c := range cfgs {
		if c.Checkpointable() {
			out = append(out, c)
		}
	}
	return out
}

// TestParallelReplayEquivalence is the tentpole contract: exact-mode
// chunk-parallel replay is bit-identical to the serial fused batch for
// every registered workload, across worker counts and chunk sizes
// (including a prime one, so seams land at awkward offsets).
func TestParallelReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := parallelConfigs(w)
			want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, chunk := range []int{0, 50021} {
					got, err := measureRecorded(rec, cfgs, MeasureOptions{Parallelism: workers}, chunk)
					if err != nil {
						t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("workers=%d chunk=%d config %d: parallel diverges\npar:    %+v\nserial: %+v",
								workers, chunk, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// synthRecording builds a small deterministic recording directly, so
// the extreme chunk-size sweep (chunk=1 means thousands of probe
// rebuilds) stays fast.
func synthRecording(n int, seed uint64) *trace.Recording {
	rec := trace.NewRecording()
	x := seed | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := trace.Load
		if x&3 == 0 {
			op = trace.Store
		}
		addr := uint32(x>>20) % 16384 &^ 3
		val := uint32(0)
		if x&7 == 7 {
			val = uint32(x >> 40)
		}
		rec.Append(op, addr, val)
	}
	return rec
}

// smallConfigs are hierarchies small enough that a 10k-access synthetic
// stream exercises evictions in every structure.
func smallConfigs() []core.Config {
	main := cache.Params{SizeBytes: 1 << 12, LineBytes: 32, Assoc: 1}
	return []core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 64, LineBytes: 32, Bits: 3},
			FrequentValues: []uint32{0, 1, 0xffffffff, 7, 42, 9, 13}},
		{Main: main, VictimEntries: 4},
		{Main: cache.Params{SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2}},
		{Main: main, L2: &cache.Params{SizeBytes: 1 << 14, LineBytes: 32, Assoc: 4}},
	}
}

// TestParallelReplayChunkSizeSweep sweeps degenerate chunk sizes —
// single-access chunks, tiny chunks, a prime, and one chunk holding
// the whole stream — across worker counts, pinning bit-identity at
// every seam geometry, for the whole batch and for each config as a
// batch of one (whose ranges replay through one-member sets).
func TestParallelReplayChunkSizeSweep(t *testing.T) {
	rec := synthRecording(10_000, 77)
	cfgs := smallConfigs()
	want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 97, 1 << 20} {
		for _, workers := range []int{2, 5} {
			got, err := measureRecorded(rec, cfgs, MeasureOptions{Parallelism: workers}, chunk)
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			for i := range want {
				solo, err := measureRecorded(rec, cfgs[i:i+1], MeasureOptions{Parallelism: workers}, chunk)
				if err != nil {
					t.Fatalf("chunk=%d workers=%d config %d alone: %v", chunk, workers, i, err)
				}
				if got[i] != want[i] || solo[0] != want[i] {
					t.Errorf("chunk=%d workers=%d config %d: diverges\npar:    %+v\nalone:  %+v\nserial: %+v",
						chunk, workers, i, got[i], solo[0], want[i])
				}
			}
		}
	}
}

// TestParallelReplayHookParity checks full MeasureResult equality —
// warmup exclusion, FVC sampling averages (float-exact), audits,
// value verification — between hooked parallel and serial replays.
func TestParallelReplayHookParity(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := parallelConfigs(w)
	base := MeasureOptions{
		WarmupAccesses: 10_000,
		SampleEvery:    5_000,
		AuditEvery:     50_000,
		VerifyValues:   true,
	}
	want, err := MeasureRecordedBatch(rec, cfgs, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opt := base
		opt.Parallelism = workers
		got, err := measureRecorded(rec, cfgs, opt, 30_000) // misaligned with every hook period
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d config %d: hooked parallel result diverges\npar:    %+v\nserial: %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelReplayOnlineFVTFallback: a batch containing an online-FVT
// config cannot be checkpointed and must fall back to the serial fused
// path — same results, no error.
func TestParallelReplayOnlineFVTFallback(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchConfigs(w) // includes the OnlineFVTEvery shape
	want, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureRecordedBatch(rec, cfgs, MeasureOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("config %d: fallback result diverges", i)
		}
	}
}

// TestParallelSteadyReplayZeroAllocs pins the per-worker steady replay
// loop: decode-into-scratch plus fused ReplayColumns must not allocate
// once the scratch and the set's frames are warm.
func TestParallelSteadyReplayZeroAllocs(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	ch := rec.Chunked(0)
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	set, err := core.NewSet([]core.Config{
		{Main: main},
		{Main: main, FVC: &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3},
			FrequentValues: ProfileTopAccessed(w, workload.Test, 7)},
		{Main: main, VictimEntries: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var scratch trace.ChunkScratch
	src := stream{ch: ch}
	if err := replaySpan(nil, set, src, 0, ch.Chunks(), hooks{}, &scratch, nil); err != nil {
		t.Fatal(err) // warm pass: pages, frames and scratch exist now
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := replaySpan(nil, set, src, 0, ch.Chunks(), hooks{}, &scratch, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state parallel worker loop allocated %.0f times per pass, want 0", allocs)
	}
}

// TestPlanRanges sanity-checks the partition: contiguous cover, no
// empty ranges, warm-up clamped at zero and absent for range 0.
func TestPlanRanges(t *testing.T) {
	for _, tc := range []struct{ c, w, warm int }{
		{10, 4, 2}, {1, 8, 3}, {7, 7, 1}, {100, 3, 0}, {5, 1, 10},
	} {
		ranges := planRanges(tc.c, tc.w, tc.warm)
		if len(ranges) == 0 || len(ranges) > tc.w {
			t.Fatalf("%+v: %d ranges", tc, len(ranges))
		}
		next := 0
		for i, r := range ranges {
			if r.first != next || r.end <= r.first {
				t.Fatalf("%+v: bad range %d: %+v", tc, i, r)
			}
			if i == 0 && r.warm != r.first {
				t.Fatalf("%+v: range 0 has warm-up: %+v", tc, r)
			}
			if r.warm > r.first || r.warm < 0 {
				t.Fatalf("%+v: bad warm %d: %+v", tc, i, r)
			}
			next = r.end
		}
		if next != tc.c {
			t.Fatalf("%+v: ranges cover %d of %d chunks", tc, next, tc.c)
		}
	}
}
