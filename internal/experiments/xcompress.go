package experiments

import (
	"io"

	"fvcache/internal/cache"
	"fvcache/internal/compress"
	"fvcache/internal/fpc"
	"fvcache/internal/fvc"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
)

// runXCompress evaluates the paper's follow-up direction (its
// reference [11]): compressing the data cache itself with frequent
// value encoding, compared against the side-structure FVC — and, for
// context, how the later pattern-based (FPC-style) compression
// philosophy fares on the same value streams.
func runXCompress(opt Options, out io.Writer) error {
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

	t := report.NewTable("Extension: FV-compressed data cache vs DMC+FVC (16KB, 8wpl)",
		"benchmark", "DMC miss%", "DMC+FVC miss%", "FVcomp miss%", "lines compressed", "FPC bits/word")
	rows, err := pmap(opt, len(suite), func(i int) ([]string, error) {
		w := suite[i]
		base, aug := pct[baseCell(w, opt.Scale, main)], pct[fvcCell(w, opt.Scale, main, 512, 3)]

		// FV-compressed cache of the same physical size, using the
		// same profiled top-7 values.
		tbl, err := fvc.NewTable(3, sim.Profiles.TopAccessed(w, opt.Scale, 7))
		if err != nil {
			return nil, err
		}
		cc := compress.MustNew(compress.Params{SizeBytes: main.SizeBytes, LineBytes: main.LineBytes}, tbl)
		var ph fpc.Histogram
		rec, err := recording(w, opt.Scale)
		if err != nil {
			return nil, err
		}
		rec.Replay(trace.MultiSink(cc, &ph))

		return []string{
			label(w),
			report.F3(base),
			report.F3(aug),
			report.F3(cc.Stats().MissRate() * 100),
			report.Pct(cc.CompressedFraction()),
			report.F2(ph.AvgBits()),
		}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	t.AddNote("FVcomp = frequent-value compressed cache (two compressed lines per frame), the paper's reference [11]")
	t.AddNote("FPC bits/word = average pattern-compressed size of the accessed values (32 = incompressible)")
	render(opt, out, t)
	return nil
}

func init() {
	register(Experiment{ID: "xcompress", Title: "FV-compressed data cache (extension)", Run: runXCompress})
}
