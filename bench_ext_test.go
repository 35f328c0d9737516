// Benchmarks for the extension experiments and design-choice
// ablations: write-miss allocation, footprint insertion policy, online
// FVT identification, the FV-compressed data cache, and FPC-style
// pattern compression.
package fvcache_test

import (
	"testing"

	"fvcache/internal/compress"
	"fvcache/internal/core"
	"fvcache/internal/energy"
	"fvcache/internal/fpc"
	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
)

// BenchmarkAblationWriteMissAlloc measures how much of the FVC's
// benefit comes from the paper's write-miss allocation exception.
func BenchmarkAblationWriteMissAlloc(b *testing.B) {
	w := getWL(b, "strproc")
	var full, ablated float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: dmc(16, 32)})
		cfgFull := fvcCfg(w, b, dmc(16, 32), 512, 3)
		cfgAblated := cfgFull
		cfgAblated.NoWriteMissAllocate = true
		full = (base.MissRate() - measure(b, w, cfgFull).MissRate()) / base.MissRate() * 100
		ablated = (base.MissRate() - measure(b, w, cfgAblated).MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(full, "fullRed%")
	b.ReportMetric(ablated, "noAllocRed%")
}

// BenchmarkAblationSkipEmptyFootprints measures the footprint
// insertion policy's effect.
func BenchmarkAblationSkipEmptyFootprints(b *testing.B) {
	w := getWL(b, "goboard")
	var full, skip float64
	for i := 0; i < b.N; i++ {
		base := measure(b, w, core.Config{Main: dmc(16, 32)})
		cfgFull := fvcCfg(w, b, dmc(16, 32), 512, 3)
		cfgSkip := cfgFull
		cfgSkip.SkipEmptyFootprints = true
		full = (base.MissRate() - measure(b, w, cfgFull).MissRate()) / base.MissRate() * 100
		skip = (base.MissRate() - measure(b, w, cfgSkip).MissRate()) / base.MissRate() * 100
	}
	b.ReportMetric(full, "alwaysRed%")
	b.ReportMetric(skip, "skipRed%")
}

// BenchmarkOnlineFVT compares online frequent-value identification
// against the profiled table.
func BenchmarkOnlineFVT(b *testing.B) {
	w := getWL(b, "goboard")
	var profiled, online float64
	var updates uint64
	for i := 0; i < b.N; i++ {
		profiled = measure(b, w, fvcCfg(w, b, dmc(16, 32), 512, 3)).MissRate() * 100
		st, err := sim.Measure(w, benchScale, core.Config{
			Main:           dmc(16, 32),
			FVC:            &fvc.Params{Entries: 512, LineBytes: 32, Bits: 3},
			OnlineFVTEvery: 50_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		online = st.MissRate() * 100
		updates = st.FVTUpdates
	}
	b.ReportMetric(profiled, "profMiss%")
	b.ReportMetric(online, "onlineMiss%")
	b.ReportMetric(float64(updates), "updates")
}

// BenchmarkCompressedCache measures the FV-compressed data cache (the
// follow-up design) against the same-size plain configuration.
func BenchmarkCompressedCache(b *testing.B) {
	w := getWL(b, "goboard")
	var missRate, frac float64
	for i := 0; i < b.N; i++ {
		tbl, err := fvc.NewTable(3, topValues(b, w, 7))
		if err != nil {
			b.Fatal(err)
		}
		cc := compress.MustNew(compress.Params{SizeBytes: 16 << 10, LineBytes: 32}, tbl)
		env := memsim.NewEnv(cc)
		w.Run(env, benchScale)
		missRate = cc.Stats().MissRate() * 100
		frac = cc.CompressedFraction() * 100
	}
	b.ReportMetric(missRate, "miss%")
	b.ReportMetric(frac, "compressed%")
}

// BenchmarkFPCClassify measures the pattern classifier's hot path.
func BenchmarkFPCClassify(b *testing.B) {
	vals := []uint32{0, 1, 0x78787878, 0xdeadbeef, 40000, 0xffffff80}
	var bits int
	for i := 0; i < b.N; i++ {
		_, bits = fpc.Classify(vals[i%len(vals)])
	}
	b.ReportMetric(float64(bits), "bits")
}

// BenchmarkEnergyEstimate exercises the energy model over a measured
// run.
func BenchmarkEnergyEstimate(b *testing.B) {
	w := getWL(b, "cpusim")
	cfg := fvcCfg(w, b, dmc(16, 32), 512, 3)
	st := measure(b, w, cfg)
	m := energy.Default08um()
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = m.Estimate(cfg, st).TotalNJ()
	}
	b.ReportMetric(total/1000, "uJ")
}

// BenchmarkOccupancyGolden exercises the differential-tested protocol
// at speed: random mixed stream through DMC+FVC.
func BenchmarkProtocolRandomStream(b *testing.B) {
	sys := core.MustNew(core.Config{
		Main:           dmc(16, 32),
		FVC:            &fvc.Params{Entries: 512, LineBytes: 32, Bits: 3},
		FrequentValues: []uint32{0, 1, 2, 4, 8, 10, 0xffffffff},
	})
	vals := []uint32{0, 1, 0xdeadbeef, 8, 10, 12345}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint32(i*2654435761) % (64 << 10) &^ 3
		if i&1 == 0 {
			sys.Access(trace.Store, addr, vals[i%len(vals)])
		} else {
			sys.Access(trace.Load, addr, sys.MemWord(addr))
		}
	}
}
