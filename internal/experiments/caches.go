package experiments

import (
	"fmt"
	"io"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/workload"
)

// withFVC attaches an FVC of the given geometry to a main cache,
// exploiting the top (2^bits - 1) profiled values of w.
func withFVC(w workload.Workload, scale workload.Scale, main cache.Params, entries, bits int) core.Config {
	return fvcCell(w, scale, main, entries, bits).config(w)
}

// --- Figure 10: miss-rate reduction vs FVC size ---

func runFig10(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	entries := []int{64, 128, 256, 512, 1024, 2048, 4096}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}

	var cells []cell
	for _, w := range suite {
		cells = append(cells, baseCell(w, opt.Scale, main))
		for _, e := range entries {
			cells = append(cells, fvcCell(w, opt.Scale, main, e, 3))
		}
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}

	header := []string{"benchmark", "DMC miss%"}
	for _, e := range entries {
		header = append(header, fmt.Sprintf("%de", e))
	}
	t := report.NewTable("Figure 10: % miss-rate reduction vs FVC entries (16KB DMC, 8 words/line, 7 values)", header...)
	for _, w := range suite {
		base := pct[baseCell(w, opt.Scale, main)]
		row := []string{label(w), report.F3(base)}
		for _, e := range entries {
			row = append(row, report.F2(reduction(base, pct[fvcCell(w, opt.Scale, main, e, 3)]))+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("paper: reductions range from ~10%% (130.li) to well over 50%% (124.m88ksim);")
	t.AddNote("paper: 124.m88ksim and 134.perl saturate at tiny FVCs (64 entries); others improve steadily with size")
	render(opt, out, t)
	return nil
}

// --- Figure 11: effectiveness of data compression ---

func runFig11(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 11: frequent value content of a 512-entry FVC (16KB DMC, 8wpl, 7 values)",
		"benchmark", "% frequent codes in valid lines", "FVC occupancy", "effective compression vs DMC")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		cfg := withFVC(w, opt.Scale, main, 512, 3)
		res, err := measureRec(w, opt.Scale, cfg, sim.MeasureOptions{SampleEvery: occInterval(opt.Scale) / 4})
		if err != nil {
			return nil, err
		}
		// A 32-byte DMC line compresses to 3 bytes of codes; scaled by
		// the frequent fraction this is the paper's 32/3 × frac factor.
		factor := 32.0 / 3.0 * res.FVCFreqFrac
		return []string{
			label(w),
			report.Pct(res.FVCFreqFrac),
			report.Pct(res.FVCOccupancy),
			report.F2(factor) + "x",
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("paper: most programs hold >40%% frequent values, giving ~4.27x less storage than a DMC for the cached values")
	render(opt, out, t)
	return nil
}

// --- Figure 12: 12 DMC configurations x 1/3/7 exploited values ---

func runFig12(opt Options, out io.Writer) error {
	sizesKB := []int{8, 16, 32, 64}
	lines := []int{16, 32, 64}
	bitsList := []int{1, 2, 3} // top 1, 3, 7 values
	suite, err := fvlSuite()
	if err != nil {
		return err
	}

	type geom struct{ szKB, line int }
	var geoms []geom
	for _, l := range lines {
		for _, s := range sizesKB {
			geoms = append(geoms, geom{s, l})
		}
	}
	dmc := func(g geom) cache.Params { return cache.Params{SizeBytes: g.szKB << 10, LineBytes: g.line, Assoc: 1} }
	var cells []cell
	for _, w := range suite {
		for _, g := range geoms {
			cells = append(cells, baseCell(w, opt.Scale, dmc(g)))
			for _, bits := range bitsList {
				cells = append(cells, fvcCell(w, opt.Scale, dmc(g), 512, bits))
			}
		}
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}

	for _, w := range suite {
		t := report.NewTable(
			fmt.Sprintf("Figure 12 (%s): %% miss-rate reduction with a 512-entry FVC", label(w)),
			"DMC config", "DMC miss%", "top 1 value", "top 3 values", "top 7 values")
		for _, g := range geoms {
			base := pct[baseCell(w, opt.Scale, dmc(g))]
			row := []string{fmt.Sprintf("%dKB/%dB", g.szKB, g.line), report.F3(base)}
			for _, bits := range bitsList {
				row = append(row, report.F2(reduction(base, pct[fvcCell(w, opt.Scale, dmc(g), 512, bits)]))+"%")
			}
			t.Rows = append(t.Rows, row)
		}
		t.AddNote("paper: gains from 1 to 3 values are substantial, 3 to 7 smaller; reductions span 1%%-68%%")
		render(opt, out, t)
		fmt.Fprintln(out)
	}
	return nil
}

// --- Figure 13: small DMC + FVC vs doubled DMC ---

// fig13Paper embeds the paper's Figure 13 miss rates for the 8
// words/line, 7-value configuration, for shape comparison.
var fig13Paper = map[string][4]string{
	// [16KB+1.5KbFVC, 32KB, 32KB+1.5KbFVC, 64KB]
	"cpusim":  {"0.385", "0.853", "0.346", "0.853"},
	"strproc": {"2.685", "3.829", "2.668", "3.829"},
}

func runFig13(opt Options, out io.Writer) error {
	names := []string{"cpusim", "strproc"}
	lines := []int{8, 16, 32, 64}
	sizesKB := []int{4, 8, 16, 32}
	bitsList := []int{3, 2, 1}

	ws, err := suite(names...)
	if err != nil {
		return err
	}

	// key is the small DMC of szKB plus a 512-entry FVC of bits, or,
	// for bits == 0, the plain DMC of twice the size.
	key := func(w workload.Workload, line, szKB, bits int) cell {
		if bits == 0 {
			return baseCell(w, opt.Scale, cache.Params{SizeBytes: (szKB * 2) << 10, LineBytes: line, Assoc: 1})
		}
		return fvcCell(w, opt.Scale, cache.Params{SizeBytes: szKB << 10, LineBytes: line, Assoc: 1}, 512, bits)
	}
	var cells []cell
	for _, w := range ws {
		for _, line := range lines {
			for _, szKB := range sizesKB {
				cells = append(cells, key(w, line, szKB, 0))
				for _, bits := range bitsList {
					cells = append(cells, key(w, line, szKB, bits))
				}
			}
		}
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}

	for _, line := range lines {
		for _, bits := range bitsList {
			t := report.NewTable(
				fmt.Sprintf("Figure 13: DMC+FVC vs doubled DMC — line %dB, %d frequent value(s)",
					line, fvc.MaxValues(bits)),
				"benchmark",
				"4KB+FVC", "8KB", "8KB+FVC", "16KB", "16KB+FVC", "32KB", "32KB+FVC", "64KB")
			for _, w := range ws {
				row := []string{label(w)}
				for _, szKB := range sizesKB {
					row = append(row,
						report.F3(pct[key(w, line, szKB, bits)]),
						report.F3(pct[key(w, line, szKB, 0)]))
				}
				t.Rows = append(t.Rows, row)
			}
			if line == 32 && bits == 3 {
				for _, name := range names {
					p := fig13Paper[name]
					t.AddNote("paper (%s, 32B/7v): 16KB+FVC=%s vs 32KB=%s; 32KB+FVC=%s vs 64KB=%s",
						name, p[0], p[1], p[2], p[3])
				}
				t.AddNote("paper: for these two benchmarks a small FVC beats doubling the DMC")
			}
			render(opt, out, t)
			fmt.Fprintln(out)
		}
	}
	return nil
}

// --- Figure 14: set-associative main caches ---

func runFig14(opt Options, out io.Writer) error {
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	assocs := []int{1, 2, 4}
	main := func(assoc int) cache.Params { return cache.Params{SizeBytes: 16 << 10, LineBytes: 32, Assoc: assoc} }
	var cells []cell
	for _, w := range suite {
		for _, a := range assocs {
			cells = append(cells, baseCell(w, opt.Scale, main(a)), fvcCell(w, opt.Scale, main(a), 512, 3))
		}
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 14: % miss-rate reduction from a 512-entry FVC vs main-cache associativity (16KB, 8wpl, 7 values)",
		"benchmark", "DM miss%", "DM reduction", "2-way miss%", "2-way reduction", "4-way miss%", "4-way reduction")
	for _, w := range suite {
		row := []string{label(w)}
		for _, a := range assocs {
			base, aug := pct[baseCell(w, opt.Scale, main(a))], pct[fvcCell(w, opt.Scale, main(a), 512, 3)]
			row = append(row, report.F3(base), report.F2(reduction(base, aug))+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("paper: FVC gains shrink under associativity for conflict-dominated benchmarks (m88ksim, perl, li)")
	t.AddNote("paper: capacity-dominated benchmarks (vortex, gcc, go) keep significant reductions at 2/4-way")
	render(opt, out, t)
	return nil
}

// --- Figure 15: victim cache vs FVC ---

func runFig15(opt Options, out io.Writer) error {
	main := cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1}
	suite, err := fvlSuite()
	if err != nil {
		return err
	}
	victim := func(w workload.Workload, entries int) cell {
		c := baseCell(w, opt.Scale, main)
		c.victim = entries
		return c
	}
	var cells []cell
	for _, w := range suite {
		cells = append(cells,
			baseCell(w, opt.Scale, main),
			// Equal area: 16-entry VC vs 128-entry FVC (paper's sizing
			// including tags).
			victim(w, 16), fvcCell(w, opt.Scale, main, 128, 3),
			// Equal access time: 4-entry VC (9ns) vs 512-entry FVC (6ns).
			victim(w, 4), fvcCell(w, opt.Scale, main, 512, 3))
	}
	pct, err := measureCells(opt, cells)
	if err != nil {
		return err
	}
	ta := report.NewTable("Figure 15a: equal area — 16-entry VC vs 128-entry FVC (4KB DMC, 8wpl)",
		"benchmark", "DMC miss%", "VC reduction", "FVC reduction")
	tb := report.NewTable("Figure 15b: equal access time — 4-entry VC vs 512-entry FVC (4KB DMC, 8wpl)",
		"benchmark", "DMC miss%", "VC reduction", "FVC reduction")
	for _, w := range suite {
		base := pct[baseCell(w, opt.Scale, main)]
		red := func(c cell) string { return report.F2(reduction(base, pct[c])) + "%" }
		ta.AddRow(label(w), report.F3(base), red(victim(w, 16)), red(fvcCell(w, opt.Scale, main, 128, 3)))
		tb.AddRow(label(w), report.F3(base), red(victim(w, 4)), red(fvcCell(w, opt.Scale, main, 512, 3)))
	}
	ta.AddNote("paper: at equal size the VC outperforms the FVC")
	render(opt, out, ta)
	fmt.Fprintln(out)
	tb.AddNote("paper: at equal access time the FVC outperforms the VC; both are effective for small DMCs")
	render(opt, out, tb)
	return nil
}

func init() {
	register(Experiment{ID: "fig10", Title: "Miss-rate reduction vs FVC size", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Effectiveness of FVC data compression", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "DMC configs x exploited value counts", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Small DMC + FVC vs doubled DMC", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "FVC with set-associative main caches", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "Victim cache vs FVC", Run: runFig15})
}
