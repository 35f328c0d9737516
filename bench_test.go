// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks of the simulator hot paths. The per-artifact benches
// run the same measurement the corresponding experiment performs, at
// test scale, and report the figure's key quantity as a custom metric
// (miss%, reduction%, coverage%, ns, ...).
//
// Run them all with:
//
//	go test -bench=. -benchmem
package fvcache_test

import (
	"sync"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/cacti"
	"fvcache/internal/core"
	"fvcache/internal/freqval"
	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

const benchScale = workload.Test

func getWL(b *testing.B, name string) workload.Workload {
	b.Helper()
	w, err := workload.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// Profile memo shared across benchmark iterations and functions.
var (
	profMu   sync.Mutex
	profMemo = map[string][]uint32{}
)

func topValues(b *testing.B, w workload.Workload, k int) []uint32 {
	b.Helper()
	profMu.Lock()
	defer profMu.Unlock()
	vals, ok := profMemo[w.Name()]
	if !ok {
		vals = sim.Profiles.TopAccessed(w, benchScale, 10)
		profMemo[w.Name()] = vals
	}
	if k > len(vals) {
		k = len(vals)
	}
	return vals[:k]
}

func measure(b *testing.B, w workload.Workload, cfg core.Config) core.Stats {
	b.Helper()
	st, err := sim.Measure(w, benchScale, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func dmc(kb, line int) cache.Params {
	return cache.Params{SizeBytes: kb << 10, LineBytes: line, Assoc: 1}
}

func fvcCfg(w workload.Workload, b *testing.B, main cache.Params, entries, bits int) core.Config {
	return core.Config{
		Main:           main,
		FVC:            &fvc.Params{Entries: entries, LineBytes: main.LineBytes, Bits: bits},
		FrequentValues: topValues(b, w, fvc.MaxValues(bits)),
	}
}

// --- Section 2 study benches (Figures 1-5, Tables 1-4) ---

// BenchmarkFig1FrequentValuesInt measures top-10 access coverage on a
// representative FVL workload (Figure 1's access half).
func BenchmarkFig1FrequentValuesInt(b *testing.B) {
	w := getWL(b, "goboard")
	var cov float64
	for i := 0; i < b.N; i++ {
		h := trace.NewValueHistogram()
		env := memsim.NewEnv(h)
		w.Run(env, benchScale)
		cov = h.CoverageOfTopK(10)
	}
	b.ReportMetric(cov*100, "top10cov%")
}

// BenchmarkFig2FrequentValuesFP is Figure 1's measurement on an FP
// kernel (Figure 2).
func BenchmarkFig2FrequentValuesFP(b *testing.B) {
	w := getWL(b, "stencil2d")
	var cov float64
	for i := 0; i < b.N; i++ {
		h := trace.NewValueHistogram()
		env := memsim.NewEnv(h)
		w.Run(env, benchScale)
		cov = h.CoverageOfTopK(10)
	}
	b.ReportMetric(cov*100, "top10cov%")
}

// lateSink lets the occurrence sampler be built after the Env whose
// memory it snapshots.
type lateSink struct{ s trace.Sink }

func (l *lateSink) Emit(e trace.Event) {
	if l.s != nil {
		l.s.Emit(e)
	}
}

// BenchmarkFig3GccTimeline runs the occurrence sampler over the gcc
// analogue (Figure 3's location curves).
func BenchmarkFig3GccTimeline(b *testing.B) {
	w := getWL(b, "ccomp")
	var samples int
	for i := 0; i < b.N; i++ {
		hold := &lateSink{}
		env := memsim.NewEnv(hold)
		occ := freqval.NewOccurrenceSampler(env.Mem, 25_000)
		hold.s = occ
		w.Run(env, benchScale)
		occ.Finalize()
		samples = len(occ.Samples())
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkFig4MissAttribution measures the share of misses involving
// top-10 accessed values (Figure 4) on a 16KB/16B DMC.
func BenchmarkFig4MissAttribution(b *testing.B) {
	w := getWL(b, "cpusim")
	cfg := core.Config{Main: dmc(16, 16)}
	vals := topValues(b, w, 10)
	rec, err := sim.Recordings.Get(w, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		total, attr, err := sim.MissAttributionSets(rec, cfg, [][]uint32{vals})
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(attr[0]) / float64(total)
	}
	b.ReportMetric(frac*100, "attrib%")
}

// BenchmarkFig5SpatialUniformity scans the spatial distribution of
// frequent values (Figure 5).
func BenchmarkFig5SpatialUniformity(b *testing.B) {
	w := getWL(b, "ccomp")
	var mean float64
	for i := 0; i < b.N; i++ {
		hold := &lateSink{}
		env := memsim.NewEnv(hold)
		occ := freqval.NewOccurrenceSampler(env.Mem, 25_000)
		hold.s = occ
		w.Run(env, benchScale)
		occ.Finalize()
		blocks := freqval.ScanSpatial(env.Mem, occ.LiveAddrs(), occ.TopOccurring(7),
			freqval.DefaultSpatialOptions())
		mean, _ = freqval.SpatialSpread(blocks)
	}
	b.ReportMetric(mean, "freq/line")
}

// BenchmarkTable1TopValues extracts the top-10 accessed values.
func BenchmarkTable1TopValues(b *testing.B) {
	w := getWL(b, "strproc")
	var n int
	for i := 0; i < b.N; i++ {
		n = len(sim.Profiles.TopAccessed(w, benchScale, 10))
	}
	b.ReportMetric(float64(n), "values")
}

// BenchmarkTable2InputSensitivity compares top values across inputs.
func BenchmarkTable2InputSensitivity(b *testing.B) {
	w := getWL(b, "goboard")
	var overlap int
	for i := 0; i < b.N; i++ {
		test := sim.Profiles.TopAccessed(w, workload.Test, 10)
		train := sim.Profiles.TopAccessed(w, workload.Train, 10)
		overlap = freqval.Overlap(test, train, 10)
	}
	b.ReportMetric(float64(overlap), "overlap10")
}

// BenchmarkTable3Stability measures when the top-7 set stabilizes.
func BenchmarkTable3Stability(b *testing.B) {
	w := getWL(b, "cpusim")
	var after float64
	for i := 0; i < b.N; i++ {
		st := freqval.NewStabilityTracker(10_000, 1, 3, 7)
		env := memsim.NewEnv(st)
		w.Run(env, benchScale)
		st.Finalize()
		after = st.FoundAfter(2)
	}
	b.ReportMetric(after*100, "foundAfter%")
}

// BenchmarkTable4ConstantAddresses measures per-allocation constancy.
func BenchmarkTable4ConstantAddresses(b *testing.B) {
	w := getWL(b, "cpusim")
	var frac float64
	for i := 0; i < b.N; i++ {
		ct := freqval.NewConstAddrTracker()
		env := memsim.NewEnv(ct)
		w.Run(env, benchScale)
		ct.Finalize()
		frac = ct.ConstantFraction()
	}
	b.ReportMetric(frac*100, "const%")
}

// --- Evaluation benches (Figures 9-15) ---

// BenchmarkFig9AccessTimes evaluates the CACTI model over the paper's
// geometry sweep.
func BenchmarkFig9AccessTimes(b *testing.B) {
	m := cacti.Default08um()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, kb := range []int{4, 8, 16, 32, 64} {
			for _, line := range []int{16, 32, 64} {
				last = m.CacheAccessNs(cache.Params{SizeBytes: kb << 10, LineBytes: line, Assoc: 1})
			}
		}
		for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
			last += m.FVCAccessNs(fvc.Params{Entries: e, LineBytes: 32, Bits: 3})
		}
	}
	b.ReportMetric(last, "ns")
}

// BenchmarkFig10FVCSizeSweep measures the miss-rate reduction of a
// 512-entry FVC on a 16KB DMC (the center point of Figure 10).
func BenchmarkFig10FVCSizeSweep(b *testing.B) {
	w := getWL(b, "goboard")
	var red float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: dmc(16, 32)})
		aug := measure(b, w, fvcCfg(w, b, dmc(16, 32), 512, 3))
		red = (base.MissRate() - aug.MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(red, "reduction%")
}

// BenchmarkFig11CompressionContent samples the FVC's frequent-value
// content (Figure 11).
func BenchmarkFig11CompressionContent(b *testing.B) {
	w := getWL(b, "cpusim")
	cfg := fvcCfg(w, b, dmc(16, 32), 512, 3)
	rec, err := sim.Recordings.Get(w, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := sim.MeasureRecorded(rec, cfg, sim.MeasureOptions{SampleEvery: 20_000})
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FVCFreqFrac
	}
	b.ReportMetric(frac*100, "freqcontent%")
}

// BenchmarkFig12ValueCountSweep compares exploiting 1 vs 7 values
// (Figure 12's key contrast) on one DMC configuration.
func BenchmarkFig12ValueCountSweep(b *testing.B) {
	w := getWL(b, "strproc")
	var red1, red7 float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: dmc(16, 32)})
		aug1 := measure(b, w, fvcCfg(w, b, dmc(16, 32), 512, 1))
		aug7 := measure(b, w, fvcCfg(w, b, dmc(16, 32), 512, 3))
		red1 = (base.MissRate() - aug1.MissRate()) / base.MissRate() * 100
		red7 = (base.MissRate() - aug7.MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(red1, "red1v%")
	b.ReportMetric(red7, "red7v%")
}

// BenchmarkFig13LargerDMCvsFVC compares a 16KB DMC + FVC against a
// 32KB DMC (Figure 13's headline row).
func BenchmarkFig13LargerDMCvsFVC(b *testing.B) {
	w := getWL(b, "cpusim")
	var augMiss, dblMiss float64
	for i := 0; i < b.N; i++ {
		augMiss = measure(b, w, fvcCfg(w, b, dmc(16, 32), 512, 3)).MissRate() * 100
		dblMiss = measure(b, w, core.Config{Main: dmc(32, 32)}).MissRate() * 100
	}
	b.ReportMetric(augMiss, "fvcMiss%")
	b.ReportMetric(dblMiss, "dblMiss%")
}

// BenchmarkFig14SetAssoc measures the FVC's benefit on a 2-way main
// cache (Figure 14).
func BenchmarkFig14SetAssoc(b *testing.B) {
	w := getWL(b, "goboard")
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}
	var red float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: main})
		aug := measure(b, w, fvcCfg(w, b, main, 512, 3))
		red = (base.MissRate() - aug.MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(red, "reduction%")
}

// BenchmarkFig15VictimVsFVC compares the victim cache and the FVC at
// equal access time (Figure 15b).
func BenchmarkFig15VictimVsFVC(b *testing.B) {
	w := getWL(b, "goboard")
	var vcRed, fvcRed float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: dmc(4, 32)})
		vc := measure(b, w, core.Config{Main: dmc(4, 32), VictimEntries: 4})
		fv := measure(b, w, fvcCfg(w, b, dmc(4, 32), 512, 3))
		vcRed = (base.MissRate() - vc.MissRate()) / base.MissRate() * 100
		fvcRed = (base.MissRate() - fv.MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(vcRed, "vcRed%")
	b.ReportMetric(fvcRed, "fvcRed%")
}

// --- Sweep engine: record-once/replay-many vs live execution ---

// sweepGrid is the configuration fan the sweep benchmarks share:
// Figure 10's shape — a 16KB DMC baseline plus every FVC entry count —
// measured over one workload.
func sweepGrid(values []uint32) []core.Config {
	main := dmc(16, 32)
	cfgs := []core.Config{{Main: main}}
	for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		cfgs = append(cfgs, core.Config{
			Main:           main,
			FVC:            &fvc.Params{Entries: e, LineBytes: main.LineBytes, Bits: 3},
			FrequentValues: values,
		})
	}
	return cfgs
}

// BenchmarkSweepLive runs the sweep the pre-recording way: every
// configuration re-executes the workload.
func BenchmarkSweepLive(b *testing.B) {
	w := getWL(b, "imgdct")
	cfgs := sweepGrid(topValues(b, w, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := sim.Measure(w, benchScale, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepReplay runs the same sweep through the recording
// engine: the shared cache's recording (captured once per process,
// exactly as the experiment suite uses it) replayed once per
// configuration.
func BenchmarkSweepReplay(b *testing.B) {
	w := getWL(b, "imgdct")
	cfgs := sweepGrid(topValues(b, w, 7))
	if _, err := sim.Recordings.Get(w, benchScale); err != nil {
		b.Fatal(err) // capture outside the timed region, like production
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := sim.Recordings.Get(w, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := sim.MeasureRecorded(rec, cfg, sim.MeasureOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepBatch runs the same sweep through the fused batch
// engine: the shared recording replayed exactly once, driving every
// configuration in lockstep through one core.SystemSet.
func BenchmarkSweepBatch(b *testing.B) {
	w := getWL(b, "imgdct")
	cfgs := sweepGrid(topValues(b, w, 7))
	if _, err := sim.Recordings.Get(w, benchScale); err != nil {
		b.Fatal(err) // capture outside the timed region, like production
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := sim.Recordings.Get(w, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSteadyReplay isolates the fused loop itself: a warm
// SystemSet over the whole sweep grid, replaying the access columns
// with zero steady-state allocations (pinned by AllocsPerRun in
// internal/sim's TestBatchReplayZeroAllocs).
func BenchmarkBatchSteadyReplay(b *testing.B) {
	w := getWL(b, "imgdct")
	cfgs := sweepGrid(topValues(b, w, 7))
	rec, err := sim.Recordings.Get(w, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	set, err := core.NewSet(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	ops, addrs, vals := rec.AccessColumns()
	set.ReplayColumns(ops, addrs, vals) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.ReplayColumns(ops, addrs, vals)
	}
}

// --- Microbenchmarks of simulator hot paths ---

// BenchmarkMemoryLoadWord exercises the last-page memo: sequential
// loads within one 4KB page never touch the page map.
func BenchmarkMemoryLoadWord(b *testing.B) {
	m := memsim.NewMemory()
	m.StoreWord(0x1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LoadWord(0x1000 + uint32(i%memsim.PageWords)*4)
	}
}

// BenchmarkTableEncode measures the FVT's linear-scan index at the
// paper's 7-value size (half the probes miss the table).
func BenchmarkTableEncode(b *testing.B) {
	tbl := fvc.MustTable(3, []uint32{0, 1, 2, 4, 8, 10, 0xffffffff})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Encode(uint32(i % 12))
	}
}

// BenchmarkRecordingReplay measures raw per-event replay dispatch into
// a null sink.
func BenchmarkRecordingReplay(b *testing.B) {
	w := getWL(b, "ccomp")
	rec, err := sim.Record(w, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(trace.Discard)
	}
	b.ReportMetric(float64(rec.Len()), "events")
}

// BenchmarkRecord measures one uncached recording of lzcomp, the
// largest test-scale workload: the setup cost every cold process pays
// per workload before its first measurement.
func BenchmarkRecord(b *testing.B) {
	w := getWL(b, "lzcomp")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, err := sim.Record(w, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rec.Len()), "events")
	}
}

// BenchmarkProfileTopAccessed measures one uncached frequent value
// profile of lzcomp (the most distinct values at test scale) from its
// cached recording: count the value column, keep the top 16.
func BenchmarkProfileTopAccessed(b *testing.B) {
	w := getWL(b, "lzcomp")
	if _, err := sim.Recordings.Get(w, benchScale); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Profiles.Reset()
		sim.Profiles.TopAccessed(w, benchScale, fvc.MaxValues(4))
	}
}

func BenchmarkCacheTouchHit(b *testing.B) {
	c := cache.New(dmc(16, 32))
	c.Insert(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(0x1000, false)
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := cache.New(dmc(16, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint32(i)<<5, false)
	}
}

func BenchmarkFVCLookup(b *testing.B) {
	tbl := fvc.MustTable(3, []uint32{0, 1, 2, 4, 8, 10, 0xffffffff})
	f := fvc.MustNew(fvc.Params{Entries: 512, LineBytes: 32, Bits: 3}, tbl)
	f.InstallFootprint(f.LineAddr(0x1000), []uint32{0, 1, 2, 4, 8, 10, 0, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(0x1000 + uint32(i%8)*4)
	}
}

func BenchmarkSystemAccess(b *testing.B) {
	sys := core.MustNew(core.Config{
		Main:           dmc(16, 32),
		FVC:            &fvc.Params{Entries: 512, LineBytes: 32, Bits: 3},
		FrequentValues: []uint32{0, 1, 2, 4, 8, 10, 0xffffffff},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint32(i%16384) * 4
		sys.Access(trace.Load, addr, 0)
	}
}

func BenchmarkWorkloadGoboard(b *testing.B) {
	w := getWL(b, "goboard")
	var n uint64
	for i := 0; i < b.N; i++ {
		env := memsim.NewEnv(trace.Discard)
		w.Run(env, benchScale)
		n = env.Accesses()
	}
	b.ReportMetric(float64(n), "accesses")
}

func BenchmarkTraceCodecEncode(b *testing.B) {
	w, _ := trace.NewWriter(discardWriter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Emit(trace.Event{Op: trace.Load, Addr: uint32(i) * 4, Value: uint32(i)})
	}
	w.Flush()
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
