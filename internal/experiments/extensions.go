package experiments

import (
	"fmt"
	"io"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/energy"
	"fvcache/internal/fvc"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// The x-series experiments go beyond the paper's artifacts: the
// three-C miss decomposition behind Figure 14's explanation, the
// design-choice ablations DESIGN.md calls out, online frequent-value
// identification (the hardware version of Table 3's "finding the
// values quickly"), and the energy quantification of the paper's
// power argument.

// runXClass decomposes each workload's misses into compulsory,
// capacity and conflict — the vocabulary the paper uses to explain
// where the FVC's gains come from (Section 4, set-associativity
// discussion).
func runXClass(opt Options, out io.Writer) error {
	p := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: three-C miss decomposition (16KB DMC, 8wpl)",
		"benchmark", "miss rate", "compulsory", "capacity", "conflict")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		cl := cache.NewClassifier(p)
		rec, err := recording(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		rec.Replay(trace.SinkFunc(func(e trace.Event) {
			if e.Op.IsAccess() {
				cl.Access(e.Addr, e.Op == trace.Store)
			}
		}))
		misses := float64(cl.Misses())
		pct := func(k cache.MissKind) string {
			if misses == 0 {
				return "-"
			}
			return report.Pct(float64(cl.Counts[k]) / misses)
		}
		return []string{
			label(w),
			report.Pct(misses / float64(cl.Accesses())),
			pct(cache.Compulsory), pct(cache.Capacity), pct(cache.Conflict),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("benchmarks whose FVC gains survive associativity (Figure 14) are the capacity/compulsory-dominated ones")
	render(opt, out, t)
	return nil
}

// runXAblation measures the contribution of the paper's two FVC design
// choices: write-miss allocation and always-insert footprints.
func runXAblation(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	// variants returns the full design and its two ablations.
	variants := func(w workload.Workload) []cell {
		full := fvcCell(w, opt.Scale, main, 512, 3)
		noAlloc := full
		noAlloc.noWriteMissAllocate = true
		skipEmpty := full
		skipEmpty.skipEmptyFootprints = true
		return []cell{full, noAlloc, skipEmpty}
	}
	var cells []cell
	for _, w := range suite {
		cells = append(append(cells, baseCell(w, opt.Scale, main)), variants(w)...)
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: FVC design-choice ablations (16KB DMC + 512e/7v FVC, % miss reduction)",
		"benchmark", "full design", "no write-miss alloc", "skip empty footprints")
	for _, w := range suite {
		base := pct[baseCell(w, opt.Scale, main)]
		row := []string{label(w)}
		for _, c := range variants(w) {
			row = append(row, report.F2(reduction(base, pct[c]))+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("write-miss allocation is the dominant design choice for write-heavy value-skewed workloads")
	render(opt, out, t)
	return nil
}

// runXOnline compares profile-directed FVT selection against online
// identification with a Space-Saving sketch.
func runXOnline(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	var cells []cell
	for _, w := range suite {
		cells = append(cells, baseCell(w, opt.Scale, main), fvcCell(w, opt.Scale, main, 512, 3))
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: profiled vs online frequent-value identification (512e/7v FVC, % miss reduction)",
		"benchmark", "profiled FVT", "online FVT", "FVT updates")
	// The online FVT is no cell: it also reports its table updates.
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		onlineCfg := core.Config{
			Main:           main,
			FVC:            &fvc.Params{Entries: 512, LineBytes: main.LineBytes, Bits: 3},
			OnlineFVTEvery: 100_000,
		}
		res, err := measureBatch(w, opt.Scale, []core.Config{onlineCfg}, sim.MeasureOptions{})
		if err != nil {
			return nil, err
		}
		base := pct[baseCell(w, opt.Scale, main)]
		profiled := pct[fvcCell(w, opt.Scale, main, 512, 3)]
		online := res[0].Stats.MissRate() * 100
		return []string{
			label(w),
			report.F2(reduction(base, profiled)) + "%",
			report.F2(reduction(base, online)) + "%",
			fmt.Sprintf("%d", res[0].Stats.FVTUpdates),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("online identification needs no profiling pass; Table 3 predicts it converges because the top values settle early")
	render(opt, out, t)
	return nil
}

// runXEnergy quantifies the paper's power argument: the FVC's traffic
// reduction translates into energy savings that dwarf its own probe
// cost.
func runXEnergy(opt Options, out io.Writer) error {
	m := energy.Default08um()
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: energy estimate (16KB DMC vs +512e/7v FVC, 0.8um model)",
		"benchmark", "DMC traffic KB", "FVC traffic KB", "DMC energy uJ", "FVC energy uJ", "saving")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		baseCfg := core.Config{Main: main}
		augCfg := withFVC(w, opt.Scale, main, 512, 3)
		res, err := measureBatch(w, opt.Scale, []core.Config{baseCfg, augCfg}, sim.MeasureOptions{})
		if err != nil {
			return nil, err
		}
		baseRes, augRes := res[0], res[1]
		be := m.Estimate(baseCfg, baseRes.Stats)
		ae := m.Estimate(augCfg, augRes.Stats)
		return []string{
			label(w),
			fmt.Sprintf("%d", baseRes.Stats.TrafficBytes()>>10),
			fmt.Sprintf("%d", augRes.Stats.TrafficBytes()>>10),
			report.F2(be.TotalNJ() / 1000),
			report.F2(ae.TotalNJ() / 1000),
			report.F2(energy.SavingsPct(be, ae)) + "%",
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("the paper: reductions in traffic directly result in corresponding reductions in power consumption")
	render(opt, out, t)
	return nil
}

func init() {
	register(Experiment{ID: "xclass", Title: "Three-C miss decomposition (extension)", Run: runXClass})
	register(Experiment{ID: "xablation", Title: "FVC design-choice ablations (extension)", Run: runXAblation})
	register(Experiment{ID: "xonline", Title: "Profiled vs online FVT (extension)", Run: runXOnline})
	register(Experiment{ID: "xenergy", Title: "Energy estimate (extension)", Run: runXEnergy})
}
