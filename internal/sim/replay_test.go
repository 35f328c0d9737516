package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

func testConfigs(w workload.Workload) map[string]core.Config {
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	return map[string]core.Config{
		"dmc": {Main: main},
		"dmc+fvc": {
			Main:           main,
			FVC:            &fvc.Params{Entries: 256, LineBytes: main.LineBytes, Bits: 3},
			FrequentValues: Profiles.TopAccessed(w, workload.Test, 7),
		},
	}
}

// TestReplayEquivalence is the record/replay engine's contract: for
// every registered workload, measuring a configuration from the shared
// recording yields bit-identical core.Stats to a live workload run.
func TestReplayEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			rec, err := Recordings.Get(w, workload.Test)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfg := range testConfigs(w) {
				live, err := Measure(w, workload.Test, cfg)
				if err != nil {
					t.Fatalf("%s live: %v", name, err)
				}
				rep, err := MeasureRecorded(rec, cfg, MeasureOptions{})
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				if live != rep.Stats {
					t.Errorf("%s: replayed stats diverge\nlive:   %+v\nreplay: %+v", name, live, rep.Stats)
				}
			}
		})
	}
}

// hookShapes are the hook settings the replay driver is checked
// against the oracle with: the usual settings, a warmup past the end
// of the run, FVC samples every 4096 accesses (so with a context some
// sample boundaries are also context checks), and warmup, sample and
// audit all on one boundary.
var hookShapes = []MeasureOptions{
	{WarmupAccesses: 10_000, SampleEvery: 5_000, AuditEvery: 50_000, VerifyValues: true},
	{WarmupAccesses: 1 << 40, SampleEvery: 5_000, AuditEvery: 50_000},
	{SampleEvery: 4096, VerifyValues: true},
	{WarmupAccesses: 20_000, SampleEvery: 20_000, AuditEvery: 20_000},
}

// hookOracle measures cfg over rec without the replay driver: one
// core.System stepped access by access over the recording's access
// columns, taking the warmup snapshot, adding FVC samples in access
// order and auditing after exactly the access counts opt names.
func hookOracle(rec *trace.Recording, cfg core.Config, opt MeasureOptions) (MeasureResult, error) {
	cfg.VerifyValues = opt.VerifyValues
	sys, err := core.New(cfg)
	if err != nil {
		return MeasureResult{}, err
	}
	var warm core.Stats
	var fracSum, occSum float64
	samples := 0
	ops, addrs, vals := rec.AccessColumns()
	for i, op := range ops {
		sys.Access(op, addrs[i], vals[i])
		n := uint64(i) + 1
		if n == opt.WarmupAccesses {
			warm = sys.Stats()
		}
		if f := sys.FVC(); f != nil && opt.SampleEvery > 0 && n%opt.SampleEvery == 0 {
			fracSum += f.FrequentFraction()
			occSum += float64(f.ValidEntries()) / float64(f.Params().Entries)
			samples++
		}
		if opt.AuditEvery > 0 && n%opt.AuditEvery == 0 {
			if err := sys.AuditInvariants(); err != nil {
				return MeasureResult{}, fmt.Errorf("access %d: %w", n, err)
			}
		}
	}
	if opt.AuditEvery > 0 {
		if err := sys.AuditInvariants(); err != nil {
			return MeasureResult{}, fmt.Errorf("final audit: %w", err)
		}
	}
	res := MeasureResult{Stats: sys.Stats().Minus(warm)}
	if samples > 0 {
		res.FVCFreqFrac = fracSum / float64(samples)
		res.FVCOccupancy = occSum / float64(samples)
	}
	return res, nil
}

var (
	oracleOnce sync.Once
	oracleRec  *trace.Recording
	oracleCfgs []core.Config
	oracleWant [][]MeasureResult // [shape][config]
	oracleErr  error
)

// hookOracleResults returns the oracle's results for every
// batchConfigs config of ccomp's test-scale recording, under every
// hook shape, computed once for all hook tests.
func hookOracleResults(t *testing.T) (*trace.Recording, []core.Config, [][]MeasureResult) {
	t.Helper()
	oracleOnce.Do(func() {
		w, err := workload.Get("ccomp")
		if err != nil {
			oracleErr = err
			return
		}
		if oracleRec, oracleErr = Recordings.Get(w, workload.Test); oracleErr != nil {
			return
		}
		oracleCfgs = batchConfigs(w)
		oracleWant = make([][]MeasureResult, len(hookShapes))
		for si, opt := range hookShapes {
			for ci, cfg := range oracleCfgs {
				res, err := hookOracle(oracleRec, cfg, opt)
				if err != nil {
					oracleErr = fmt.Errorf("shape %d config %d: %w", si, ci, err)
					return
				}
				oracleWant[si] = append(oracleWant[si], res)
			}
		}
	})
	if oracleErr != nil {
		t.Fatal(oracleErr)
	}
	return oracleRec, oracleCfgs, oracleWant
}

// checkHooks runs measure under every hook shape, with no context and
// with a live one, and compares each config's whole MeasureResult
// with the oracle's.
func checkHooks(t *testing.T, measure func(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error)) {
	t.Helper()
	rec, cfgs, want := hookOracleResults(t)
	for si, shape := range hookShapes {
		for _, ctx := range []context.Context{nil, context.Background()} {
			opt := shape
			opt.Ctx = ctx
			got, err := measure(rec, cfgs, opt)
			if err != nil {
				t.Fatalf("shape %d (ctx %v): %v", si, ctx != nil, err)
			}
			for i := range cfgs {
				if got[i] != want[si][i] {
					t.Errorf("shape %d (ctx %v) config %d: hooked result diverges\ngot:    %+v\noracle: %+v",
						si, ctx != nil, i, got[i], want[si][i])
				}
			}
		}
	}
}

// TestReplayEquivalenceHooks checks the hooked path of single-config
// replays: warmup exclusion, FVC content sampling and periodic audits
// must observe the same access boundaries as the oracle.
func TestReplayEquivalenceHooks(t *testing.T) {
	checkHooks(t, func(rec *trace.Recording, cfgs []core.Config, opt MeasureOptions) ([]MeasureResult, error) {
		out := make([]MeasureResult, len(cfgs))
		for i, cfg := range cfgs {
			res, err := MeasureRecorded(rec, cfg, opt)
			if err != nil {
				return nil, fmt.Errorf("config %d: %w", i, err)
			}
			out[i] = res
		}
		return out, nil
	})
}

// TestReplayAccessPathZeroAllocs pins the de-allocated hot path: once
// the hierarchy is warm (pages materialized, caches filled), replaying
// a full recording must not allocate at all.
func TestReplayAccessPathZeroAllocs(t *testing.T) {
	w, err := workload.Get("ccomp")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(w)["dmc+fvc"]
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ReplayInto(rec, sys) // warm: backing pages and cache frames exist now
	if allocs := testing.AllocsPerRun(3, func() { ReplayInto(rec, sys) }); allocs > 0 {
		t.Errorf("steady-state replay allocated %.0f times per full replay, want 0", allocs)
	}
}

// TestRecordingCacheSingleflight checks that concurrent Gets for the
// same key share one recording and one underlying execution.
func TestRecordingCacheSingleflight(t *testing.T) {
	w, err := workload.Get("strproc")
	if err != nil {
		t.Fatal(err)
	}
	var c RecordingCache
	const n = 8
	got := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := c.Get(w, workload.Test)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = rec
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("Get %d returned a different recording instance", i)
		}
	}
	c.Reset()
	rec2, err := c.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == got[0] {
		t.Error("Reset did not drop the cached recording")
	}
}
