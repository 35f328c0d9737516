package experiments

import (
	"fmt"
	"io"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/workload"
)

// runXL2 places a 128KB L2 behind the hierarchy and measures whether
// the FVC's benefit survives at the off-chip boundary — the question a
// modern reader asks of the paper's single-level evaluation.
func runXL2(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	l2 := cache.Params{SizeBytes: 128 << 10, LineBytes: 32, Assoc: 4}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: FVC behind a 128KB 4-way L2 (16KB L1, 8wpl)",
		"benchmark", "L1 miss% (no FVC)", "L1 miss% (+FVC)", "off-chip KB (no FVC)", "off-chip KB (+FVC)", "traffic saving")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		baseCfg := core.Config{Main: main, L2: &l2}
		augCfg := withFVC(w, opt.Scale, main, 512, 3)
		augCfg.L2 = &l2
		res, err := measureBatch(w, opt.Scale, []core.Config{baseCfg, augCfg}, sim.MeasureOptions{})
		if err != nil {
			return nil, err
		}
		b, a := res[0].Stats, res[1].Stats
		return []string{
			label(w),
			report.F3(b.MissRate() * 100),
			report.F3(a.MissRate() * 100),
			fmt.Sprintf("%d", b.TrafficBytes()>>10),
			fmt.Sprintf("%d", a.TrafficBytes()>>10),
			report.F2(reduction(float64(b.TrafficWords), float64(a.TrafficWords))) + "%",
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("an L2 absorbs refetches the FVC would otherwise catch, but FVC fill/writeback savings still cut off-chip traffic")
	render(opt, out, t)
	return nil
}

// runXAssocFVC varies the FVC's own associativity — the paper keeps it
// direct mapped; follow-up designs used small set-associative FVCs.
func runXAssocFVC(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	assocs := []int{1, 2, 4}
	// assocCell is the 512-entry/7-value FVC at the given associativity;
	// 1-way is the paper's direct-mapped FVC, the cell with Assoc 0.
	assocCell := func(w workload.Workload, a int) cell {
		c := fvcCell(w, opt.Scale, main, 512, 3)
		if a > 1 {
			c.fvc.Assoc = a
		}
		return c
	}
	var cells []cell
	for _, w := range suite {
		cells = append(cells, baseCell(w, opt.Scale, main))
		for _, a := range assocs {
			cells = append(cells, assocCell(w, a))
		}
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}
	header := []string{"benchmark", "DMC miss%"}
	for _, a := range assocs {
		header = append(header, fmt.Sprintf("%d-way FVC red.", a))
	}
	t := report.NewTable("Extension: FVC associativity (16KB DMC + 512-entry/7v FVC)", header...)
	for _, w := range suite {
		base := pct[baseCell(w, opt.Scale, main)]
		row := []string{label(w), report.F3(base)}
		for _, a := range assocs {
			row = append(row, report.F2(reduction(base, pct[assocCell(w, a)]))+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("the paper's FVC is direct mapped; associativity helps when FVC entries conflict (many hot evicted lines per set)")
	render(opt, out, t)
	return nil
}

func init() {
	register(Experiment{ID: "xl2", Title: "FVC behind an L2 (extension)", Run: runXL2})
	register(Experiment{ID: "xfvcassoc", Title: "FVC associativity (extension)", Run: runXAssocFVC})
}
