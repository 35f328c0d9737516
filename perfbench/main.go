// Command perfbench is the repository's end-to-end benchmark. It hosts
// the code under test in its own process, issues a fixed, seeded
// sequence of operations for one workload, checks every answer, and
// prints its metrics as one JSON object on the last line of standard
// output. See README.md in this directory for the workloads, metrics
// and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"fvcache/internal/sim"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the timed phase uses the last setup.
const setupReps = 3

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run. A workload whose path
// does not touch a layer reports that layer's metrics as 0: the
// serving layers on figures, the experiment layer on the serving
// workloads.
var perLayer = []metricDef{
	{"workload.record_s", "s"},
	{"trace.chunk_s", "s"},
	{"trace.decode_ns_per_access", "ns/access"},
	{"trace.bytes_per_access", "B/access"},
	{"sim.profile_s", "s"},
	{"sim.replay_ns_per_access", "ns/access"},
	{"sim.batch_ns_per_access_cfg", "ns/access/cfg"},
	{"sim.parallel_ns_per_access_cfg", "ns/access/cfg"},
	{"sim.attrib_ns_per_access", "ns/access"},
	{"mrc.dm_ns_per_access", "ns/access"},
	{"experiments.fig4_ms", "ms"},
	{"experiments.fig10_ms", "ms"},
	{"experiments.fig12_ms", "ms"},
	{"experiments.fig13_ms", "ms"},
	{"experiments.fig14_ms", "ms"},
	{"experiments.fig15_ms", "ms"},
	{"api.key_us", "us"},
	{"api.codec_us", "us"},
	{"client.rtt_us", "us"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"serve.wait_ms", "ms"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.configs_per_batch", "count"},
	{"serve.batches_per_req", "ratio"},
	{"serve.rejected", "count"},
	{"serve.measure_p50_ms", "ms"},
	{"serve.mrc_p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"host.steal_pct", "%"},
	{"bench.first_op_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed op.
type sample struct {
	lat time.Duration
	// class groups ops that take alike inputs, for the first-op ratio.
	class string
	// traced ops ran inside a span; the others are the untraced half
	// of a traced run, the base of the tracing overhead.
	traced bool
	failed bool
}

// bench is one workload. A run calls setup setupReps times (each call
// first releases what the previous one built), then run once, verify,
// layers when traced, and close.
type bench interface {
	setup(tr *tracer, trace uint64) error
	run(tr *tracer) []sample
	// verify checks the answers of the timed phase, marking the ops
	// that failed.
	verify(samples []sample) error
	// layers fills the workload's own per-layer metrics.
	layers(tr *tracer, samples []sample, m map[string]float64) error
	close()
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "figures, serve_hot or serve_cold")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "run length the op counts are sized for")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	root := flag.String("root", ".", "checkout root, stamped by its source digest")
	spanDir := flag.String("spans", ".bench_build/spans", "where a traced run writes its spans")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(b, *traced == 1, *root, filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)), *name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func newBench(name string, seed int64, seconds int) (bench, error) {
	switch name {
	case "figures":
		return newFigures(seed, seconds)
	case "serve_hot":
		return newServeHot(seed, seconds), nil
	case "serve_cold":
		return newServeCold(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, serve_hot or serve_cold)", name)
}

// stamp is printed before the result in every run: what ran, where,
// and how noisy the host was.
type stamp struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Commit       string    `json:"commit"`
	Go           string    `json:"go"`
	Cores        int       `json:"cores"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	Traced       bool      `json:"traced"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	StealPct     float64   `json:"host.steal_pct"`
	FirstOpRatio float64   `json:"bench.first_op_ratio"`
	SetupS       []float64 `json:"setup_s_each"`
	TimedS       float64   `json:"timed_s"`
}

// measure runs one workload end to end and assembles its result.
func measure(b bench, traced bool, root, spanPath, name string, seed int64) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	commit, err := treeDigest(root)
	if err != nil {
		return nil, fmt.Errorf("stamping the source tree: %w", err)
	}
	defer b.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Drop everything the previous setup built, so each setup pays
		// every lazy cost again; returning the memory keeps earlier
		// setups out of peak_rss_mb.
		b.close()
		sim.Recordings.Reset()
		sim.Profiles.Reset()
		debug.FreeOSMemory()
		start := time.Now()
		if err := b.setup(tr, tr.newTrace()); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Start every timed phase from a collected heap, so the garbage
	// collections inside it depend on its own allocations, not on
	// where setup left the collector.
	runtime.GC()
	ticks0, _ := readTicks()
	cpu0 := cpuTime()
	start := time.Now()
	samples := b.run(tr)
	timed := time.Since(start)
	cpu := cpuTime() - cpu0
	ticks1, _ := readTicks()
	rss := peakRSSMB()
	if err := b.verify(samples); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	st := stamp{
		Workload: name, Seed: seed, Commit: commit, Go: runtime.Version(),
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Traced: traced,
		Attempted: len(samples), StealPct: stealPct(ticks0, ticks1),
		FirstOpRatio: firstOpRatio(samples), SetupS: setups, TimedS: timed.Seconds(),
	}
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = ms(s.lat)
		if s.failed {
			st.Failed++
		}
	}
	res := &result{Correct: st.Failed == 0, Attempted: st.Attempted, Failed: st.Failed, Metrics: map[string]metric{}}

	if !traced {
		fill(res, endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"p50_ms":        median(lats),
			"p90_ms":        percentile(lats, 0.9),
			"cpu_ms_per_op": ms(cpu) / float64(len(samples)),
			"peak_rss_mb":   rss,
		})
	} else {
		m := map[string]float64{
			"host.steal_pct":           st.StealPct,
			"bench.first_op_ratio":     st.FirstOpRatio,
			"bench.trace_overhead_pct": traceOverheadPct(samples),
		}
		setupLayers(tr.snapshot(), m)
		if err := b.layers(tr, samples, m); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		fill(res, perLayer, m)
		spans := tr.snapshot()
		if err := writeSpans(spanPath, spans); err != nil {
			return nil, err
		}
		for _, r := range selfSummary(spans) {
			fmt.Fprintf(os.Stderr, "self %-34s n=%-6d total=%10.1fms self=%10.1fms\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
		}
	}
	line, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", line)
	return res, nil
}

// fill copies the named metrics into the result; a metric the run did
// not produce reads 0.
func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
}

// firstOpRatio is the first op's latency over the median of the other
// ops of its class. Near 1 means setup left no lazy cost for the
// first op to pay.
func firstOpRatio(samples []sample) float64 {
	if len(samples) < 2 {
		return 1
	}
	var same, rest []float64
	for _, s := range samples[1:] {
		rest = append(rest, ms(s.lat))
		if s.class == samples[0].class {
			same = append(same, ms(s.lat))
		}
	}
	if len(same) == 0 {
		same = rest
	}
	return ms(samples[0].lat) / median(same)
}

// traceOverheadPct compares the p50 of a traced run's traced ops with
// that of its untraced ops.
func traceOverheadPct(samples []sample) float64 {
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, ms(s.lat))
		} else {
			off = append(off, ms(s.lat))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(on) - median(off)) / median(off)
}
