package experiments

import (
	"fmt"
	"io"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/freqval"
	"fvcache/internal/memsim"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// occInterval picks the occurrence-sampling interval (the analogue of
// the paper's every-10M-instruction snapshots) per scale.
func occInterval(scale workload.Scale) uint64 {
	switch scale {
	case workload.Test:
		return 25_000
	case workload.Train:
		return 75_000
	default:
		return 150_000
	}
}

// studyRun is one combined characterization pass over a workload.
type studyRun struct {
	hist *trace.ValueHistogram
	occ  *freqval.OccurrenceSampler
}

func runStudy(w workload.Workload, scale workload.Scale) (*studyRun, error) {
	rec, err := recording(w, scale)
	if err != nil {
		return nil, err
	}
	// The occurrence sampler reads the memory image, which a live run
	// got from Env.Mem; on replay a Replayer reconstructs it. It sits
	// first in the sink chain so the sampler observes memory after each
	// event took effect, exactly as it did live. The histogram needs no
	// memory, so it counts the access value column instead.
	r := memsim.NewReplayer()
	s := &studyRun{
		hist: trace.NewValueHistogram(),
		occ:  freqval.NewOccurrenceSampler(r.Mem, occInterval(scale)),
	}
	rec.Replay(trace.MultiSink(r, s.occ))
	s.occ.Finalize()
	_, _, vals := rec.AccessColumns()
	s.hist.AddValues(vals)
	return s, nil
}

// --- Figure 1 & 2: frequently encountered values ---

func frequentValuesTable(title string, suite []workload.Workload, opt Options) (*report.Table, error) {
	t := report.NewTable(title,
		"benchmark", "occ top1", "occ top3", "occ top7", "occ top10",
		"acc top1", "acc top3", "acc top7", "acc top10")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		s, err := runStudy(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		row := []string{label(w)}
		for _, k := range []int{1, 3, 7, 10} {
			row = append(row, report.Pct(s.occ.AvgCoverage(s.occ.TopOccurring(k))))
		}
		for _, k := range []int{1, 3, 7, 10} {
			row = append(row, report.Pct(s.hist.CoverageOfTopK(k)))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

func runFig1(opt Options, out io.Writer) error {
	ws, err := intSuite()
	if err != nil {
		return err
	}
	t, err := frequentValuesTable("Figure 1: frequently encountered values (integer suite)", ws, opt)
	if err != nil {
		return err
	}
	t.AddNote("paper: in the six FVL benchmarks ten values occupy >50%% of locations and ~50%% of accesses;")
	t.AddNote("paper: 129.compress and 132.ijpeg (our lzcomp, imgdct) show very little frequent value locality")
	render(opt, out, t)
	return nil
}

func runFig2(opt Options, out io.Writer) error {
	t, err := frequentValuesTable("Figure 2: frequently encountered values (floating-point suite)", workload.FP(), opt)
	if err != nil {
		return err
	}
	t.AddNote("paper: SPECfp95 benchmarks also exhibit a high degree of frequent value locality")
	render(opt, out, t)
	return nil
}

// --- Figure 3: FVL over time for the gcc analogue ---

func runFig3(opt Options, out io.Writer) error {
	w, err := workload.Get("ccomp")
	if err != nil {
		return err
	}
	// Pass 1: characterization run fixing the final top value sets.
	s, err := runStudy(w, opt.Scale)
	if err != nil {
		return err
	}
	topOcc := s.occ.TopOccurring(10)
	topAcc := freqval.TopAccessed(s.hist, 10)
	totalAcc := s.hist.Total()

	// Locations time series straight from the occurrence samples.
	tl := report.NewTable("Figure 3a: locations occupied by top accessed values over time (ccomp/126.gcc)",
		"sample@acc", "locations", "top1", "top3", "top7", "top10", "unique")
	for i, smp := range s.occ.Samples() {
		row := []string{
			fmt.Sprintf("%d", smp.AtAccess),
			fmt.Sprintf("%d", smp.Locations),
		}
		for _, k := range []int{1, 3, 7, 10} {
			row = append(row, fmt.Sprintf("%d", s.occ.CoverageAt(i, topOcc[:min(k, len(topOcc))])))
		}
		row = append(row, fmt.Sprintf("%d", smp.Unique()))
		tl.Rows = append(tl.Rows, row)
	}
	render(opt, out, tl)
	fmt.Fprintln(out)

	// Pass 2: cumulative access counts for the final top values.
	interval := totalAcc / 24
	if interval == 0 {
		interval = 1
	}
	type checkpoint struct {
		at                      uint64
		top1, top3, top7, top10 uint64
		unique                  int
	}
	var cps []checkpoint
	counts := make(map[uint32]uint64, len(topAcc))
	inTop := make(map[uint32]int, len(topAcc))
	for i, v := range topAcc {
		inTop[v] = i
	}
	seen := make(map[uint32]struct{})
	var n uint64
	sink := trace.SinkFunc(func(e trace.Event) {
		if !e.Op.IsAccess() {
			return
		}
		n++
		seen[e.Value] = struct{}{}
		if _, ok := inTop[e.Value]; ok {
			counts[e.Value]++
		}
		if n%interval == 0 {
			cp := checkpoint{at: n, unique: len(seen)}
			for v, c := range counts {
				i := inTop[v]
				if i < 1 {
					cp.top1 += c
				}
				if i < 3 {
					cp.top3 += c
				}
				if i < 7 {
					cp.top7 += c
				}
				cp.top10 += c
			}
			cps = append(cps, cp)
		}
	})
	rec, err := recording(w, opt.Scale)
	if err != nil {
		return err
	}
	rec.Replay(sink)

	ta := report.NewTable("Figure 3b: accesses involving top accessed values over time (ccomp/126.gcc)",
		"accesses", "top1", "top3", "top7", "top10", "unique values")
	for _, cp := range cps {
		ta.AddRow(fmt.Sprintf("%d", cp.at),
			fmt.Sprintf("%d", cp.top1), fmt.Sprintf("%d", cp.top3),
			fmt.Sprintf("%d", cp.top7), fmt.Sprintf("%d", cp.top10),
			fmt.Sprintf("%d", cp.unique))
	}
	ta.AddNote("paper (126.gcc): top ten values occupy ~50%% of locations and ~40%% of accesses throughout execution;")
	ta.AddNote("paper: distinct values stay near 20%% of total locations/accesses")
	render(opt, out, ta)
	return nil
}

// --- Figure 4: cache misses attributable to frequent values ---

func runFig4(opt Options, out io.Writer) error {
	cfg := core.Config{Main: cache.Params{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1}}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 4: misses involving top-10 values (16KB DMC, 16B lines)",
		"benchmark", "miss rate", "% misses w/ top-10 occurring", "% misses w/ top-10 accessed")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		s, err := runStudy(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		topOcc := s.occ.TopOccurring(10)
		topAcc := freqval.TopAccessed(s.hist, 10)
		rec, err := recording(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		total, attr, err := sim.MissAttributionSets(rec, cfg, [][]uint32{topOcc, topAcc})
		if err != nil {
			return nil, err
		}
		missRate := float64(total) / float64(s.hist.Total())
		return []string{
			label(w),
			report.Pct(missRate),
			report.Pct(float64(attr[0]) / float64(total)),
			report.Pct(float64(attr[1]) / float64(total)),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("paper: on average just under 50%% of misses involve top-10 occurring values and just over 50%% involve top-10 accessed values")
	render(opt, out, t)
	return nil
}

// --- Figure 5: spatial distribution of frequent values ---

func runFig5(opt Options, out io.Writer) error {
	w, err := workload.Get("ccomp")
	if err != nil {
		return err
	}
	// Pass 1: total access count and top-7 occurring values.
	s, err := runStudy(w, opt.Scale)
	if err != nil {
		return err
	}
	top7 := s.occ.TopOccurring(7)
	half := s.hist.Total() / 2

	// Pass 2: stop-at-midpoint scan over the replayed memory image.
	rec, err := recording(w, opt.Scale)
	if err != nil {
		return err
	}
	r := memsim.NewReplayer()
	occ := freqval.NewOccurrenceSampler(r.Mem, occInterval(opt.Scale))
	var n uint64
	var blocks []float64
	rec.Replay(trace.MultiSink(r, trace.SinkFunc(func(e trace.Event) {
		occ.Emit(e)
		if e.Op.IsAccess() {
			n++
			if n == half {
				blocks = freqval.ScanSpatial(r.Mem, occ.LiveAddrs(), top7, freqval.DefaultSpatialOptions())
			}
		}
	})))

	mean, dev := freqval.SpatialSpread(blocks)
	t := report.NewTable("Figure 5: frequent values per 8-word line, 800-word blocks (ccomp/126.gcc at 50% of execution)",
		"block", "avg frequent values per line")
	for i, b := range blocks {
		if i%8 == 0 || i == len(blocks)-1 { // print every 8th block
			t.AddRow(fmt.Sprintf("%d", i), report.F2(b))
		}
	}
	t.AddNote("mean over %d blocks = %s, mean abs deviation = %s", len(blocks), report.F2(mean), report.F2(dev))
	t.AddNote("paper: the measure is around 4 (of 7) throughout memory, i.e. frequent values are distributed quite uniformly")
	render(opt, out, t)
	return nil
}

// --- Table 1: the frequent values themselves ---

func runTab1(opt Options, out io.Writer) error {
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	type cols struct{ acc, occ []uint32 }
	per, err := pmap(opt, len(suite), func(i int) (cols, error) {
		s, err := runStudy(suite[i], opt.Scale)
		if err != nil {
			return cols{}, err
		}
		return cols{acc: freqval.TopAccessed(s.hist, 10), occ: s.occ.TopOccurring(10)}, nil
	})
	if err != nil {
		return err
	}
	header := []string{"rank"}
	for _, w := range suite {
		header = append(header, w.Name()+" acc", w.Name()+" occ")
	}
	t := report.NewTable("Table 1: top-10 frequently accessed and occurring values (hex)", header...)
	for rank := 0; rank < 10; rank++ {
		row := []string{fmt.Sprintf("%d", rank+1)}
		for _, c := range per {
			row = append(row, hexAt(c.acc, rank), hexAt(c.occ, rank))
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("paper: small values (0, 1, ffffffff, small ints) recur across benchmarks; large values are addresses")
	render(opt, out, t)
	return nil
}

func hexAt(vals []uint32, i int) string {
	if i >= len(vals) {
		return "-"
	}
	return fmt.Sprintf("%x", vals[i])
}

// --- Table 2: input sensitivity ---

func runTab2(opt Options, out io.Writer) error {
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Table 2: frequently accessed value overlap across inputs (X/Y = X of top-Y shared with ref)",
		"benchmark", "test 7", "test 10", "train 7", "train 10")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		ref := sim.Profiles.TopAccessed(w, workload.Ref, 10)
		test := sim.Profiles.TopAccessed(w, workload.Test, 10)
		train := sim.Profiles.TopAccessed(w, workload.Train, 10)
		return []string{
			label(w),
			fmt.Sprintf("%d/7", freqval.Overlap(test, ref, 7)),
			fmt.Sprintf("%d/10", freqval.Overlap(test, ref, 10)),
			fmt.Sprintf("%d/7", freqval.Overlap(train, ref, 7)),
			fmt.Sprintf("%d/10", freqval.Overlap(train, ref, 10)),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("paper: roughly 50%% overlap across inputs; small values are input-insensitive, addresses are not")
	render(opt, out, t)
	return nil
}

// --- Table 3: how quickly the frequent values are found ---

func runTab3(opt Options, out io.Writer) error {
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Table 3: % of execution after which top-k accessed values stop changing",
		"benchmark", "accesses", "top1 order", "top3 order", "top7 order", "top3 identity", "top7 identity")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		st := freqval.NewStabilityTracker(occInterval(opt.Scale)/8, 1, 3, 7)
		rec, err := recording(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		rec.Replay(st)
		st.Finalize()
		return []string{
			label(w),
			fmt.Sprintf("%d", st.Histogram().Total()),
			report.Pct(st.FoundAfter(0)),
			report.Pct(st.FoundAfter(1)),
			report.Pct(st.FoundAfter(2)),
			report.Pct(st.IdentityFoundAfter(1)),
			report.Pct(st.IdentityFoundAfter(2)),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("paper: values are found very quickly in most cases (0-0.5%%); 124.m88ksim's ordering settles late (63-70%%) but identities settle by 18-39%%")
	render(opt, out, t)
	return nil
}

// --- Table 4: addresses with constant values ---

// tab4Paper holds the paper's Table 4 reference numbers.
var tab4Paper = map[string]string{
	"goboard": "78.2%", "cpusim": "99.3%", "ccomp": "61.8%",
	"lispint": "28.8%", "strproc": "80.4%", "objdb": "79.9%",
	"lzcomp": "3.2%", "imgdct": "6.7%",
}

func runTab4(opt Options, out io.Writer) error {
	suite, err := intSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Table 4: referenced addresses with constant values (per allocation instance)",
		"benchmark", "measured", "paper")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		ct := freqval.NewConstAddrTracker()
		rec, err := recording(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		rec.Replay(ct)
		ct.Finalize()
		return []string{label(w), report.Pct(ct.ConstantFraction()), tab4Paper[w.Name()]}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("shape to match: the six FVL benchmarks high, the two controls near zero, lispint lowest of the six")
	render(opt, out, t)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register(Experiment{ID: "fig1", Title: "Frequently encountered values, integer suite", Run: runFig1})
	register(Experiment{ID: "fig2", Title: "Frequently encountered values, FP suite", Run: runFig2})
	register(Experiment{ID: "fig3", Title: "Frequent value locality over time (gcc analogue)", Run: runFig3})
	register(Experiment{ID: "fig4", Title: "Cache misses attributable to frequent values", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "Spatial uniformity of frequent values", Run: runFig5})
	register(Experiment{ID: "tab1", Title: "Top-10 frequent values per benchmark", Run: runTab1})
	register(Experiment{ID: "tab2", Title: "Input sensitivity of frequent values", Run: runTab2})
	register(Experiment{ID: "tab3", Title: "Stability of the frequent value set", Run: runTab3})
	register(Experiment{ID: "tab4", Title: "Addresses with constant values", Run: runTab4})
}
