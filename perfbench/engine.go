package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"fvcache"
	"fvcache/internal/mrc"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// profileK is the frequent value table size setup profiles for: the
// largest any FVC asks for (4-bit codes), so every later profile
// lookup is a prefix of the cached one.
var profileK = fvcache.MaxFVTValues(4)

// engineSetup fills the process-wide engine caches for every workload
// at scale — the recording, its chunk-compressed form and its value
// profile — so no timed op pays for them. It returns the compressed
// trace size in bytes per access over all workloads.
func engineSetup(tr *tracer, tid uint64, scale workload.Scale) (float64, error) {
	parent := tr.begin("setup", scale.String(), tid, -1)
	defer tr.end(parent)
	var bytes, accesses float64
	for _, w := range workload.All() {
		var rec *trace.Recording
		var err error
		tr.time("workload.record", w.Name(), tid, parent, func() { rec, err = sim.Recordings.Get(w, scale) })
		if err != nil {
			return 0, fmt.Errorf("recording %s: %w", w.Name(), err)
		}
		var cr *trace.ChunkedRecording
		tr.time("trace.chunk", w.Name(), tid, parent, func() { cr = rec.Chunked(0) })
		tr.time("sim.profile", w.Name(), tid, parent, func() { sim.Profiles.TopAccessed(w, scale, profileK) })
		bytes += float64(cr.CompressedBytes())
		accesses += float64(cr.Accesses())
	}
	return bytes / accesses, nil
}

// setupLayers derives the setup-phase layer metrics from the setup
// spans: each is the median over setups of that layer's total time.
func setupLayers(spans []span, m map[string]float64) {
	for name, metric := range map[string]string{
		"workload.record": "workload.record_s",
		"trace.chunk":     "trace.chunk_s",
		"sim.profile":     "sim.profile_s",
	} {
		var per []float64
		for _, d := range sumBy(spans, name) {
			per = append(per, d.Seconds())
		}
		m[metric] = median(per)
	}
}

// probeSuite is the workload set the engine probes replay: the six
// the FVC figures run on.
var probeSuite = []string{"goboard", "cpusim", "ccomp", "lispint", "strproc", "objdb"}

// fig10Grid is Figure 10's fused batch: the 16KB direct-mapped cache
// alone and with each of seven FVC sizes (3-bit codes).
func fig10Grid(values []uint32) []fvcache.Config {
	main := fvcache.CacheParams{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	cfgs := []fvcache.Config{{Main: main}}
	for _, e := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		cfgs = append(cfgs, fvcache.Config{
			Main:           main,
			FVC:            &fvcache.FVCParams{Entries: e, LineBytes: 32, Bits: 3},
			FrequentValues: values,
		})
	}
	return cfgs
}

// probeEngine times the engine layers' public entry points on the
// probe suite's recordings at scale and fills their per-access
// metrics. The chunk-parallel replay must equal the serial fused one.
func probeEngine(tr *tracer, scale workload.Scale, m map[string]float64) error {
	tid := tr.newTrace()
	parent := tr.begin("probe.engine", scale.String(), tid, -1)
	defer tr.end(parent)
	var acc float64
	var decode, replay, batch, parallel, attrib, dm time.Duration
	for _, name := range probeSuite {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		rec, err := sim.Recordings.Get(w, scale)
		if err != nil {
			return err
		}
		acc += float64(rec.Accesses())
		top := sim.Profiles.TopAccessed(w, scale, 7)
		grid := fig10Grid(top)
		cr := rec.Chunked(0)
		var errs [6]error
		decode += tr.time("trace.decode", name, tid, parent, func() {
			var s trace.ChunkScratch
			for i := 0; i < cr.Chunks() && errs[0] == nil; i++ {
				_, _, _, errs[0] = cr.DecodeChunk(i, &s)
			}
		})
		replay += tr.time("sim.replay", name, tid, parent, func() {
			_, errs[1] = sim.MeasureRecorded(rec, grid[0], sim.MeasureOptions{})
		})
		var serial, par []sim.MeasureResult
		batch += tr.time("sim.batch", name, tid, parent, func() {
			serial, errs[2] = sim.MeasureRecordedBatch(rec, grid, sim.MeasureOptions{})
		})
		parallel += tr.time("sim.parallel", name, tid, parent, func() {
			par, errs[3] = sim.MeasureRecordedBatch(rec, grid, sim.MeasureOptions{Parallelism: runtime.GOMAXPROCS(0)})
		})
		attrib += tr.time("sim.attrib", name, tid, parent, func() {
			_, _, errs[4] = sim.MissAttributionSets(rec, grid[0], [][]uint32{top[:1], top[:3], top})
		})
		dm += tr.time("mrc.dm", name, tid, parent, func() {
			sets := []int{}
			for size := 1 << 10; size <= 64<<10; size *= 2 {
				sets = append(sets, size/32)
			}
			_, errs[5] = mrc.Analyze(rec, mrc.Options{LineBytes: 32, MaxSizeBytes: 64 << 10, SetCounts: sets, MaxAssoc: 1})
		})
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		if !reflect.DeepEqual(serial, par) {
			return fmt.Errorf("%s: chunk-parallel replay differs from the serial fused replay", name)
		}
	}
	k := float64(len(fig10Grid(nil)))
	m["trace.decode_ns_per_access"] = float64(decode) / acc
	m["sim.replay_ns_per_access"] = float64(replay) / acc
	m["sim.batch_ns_per_access_cfg"] = float64(batch) / acc / k
	m["sim.parallel_ns_per_access_cfg"] = float64(parallel) / acc / k
	m["sim.attrib_ns_per_access"] = float64(attrib) / acc
	m["mrc.dm_ns_per_access"] = float64(dm) / acc
	return nil
}
