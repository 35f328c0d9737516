package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/harness"
	"fvcache/internal/mrc"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// A cell is one cache configuration of one workload whose miss rate a
// figure needs. It is a comparable key: an FVC cell's frequent values
// are the top (2^bits - 1) profiled values of (workload, scale), so no
// fingerprint of them is needed. Configurations the key has no field
// for (an L2, online FVT identification) cannot be asked for; they are
// measured with measureBatch.
type cell struct {
	workload string
	scale    workload.Scale
	main     cache.Params
	fvc      fvc.Params // zero: no FVC
	victim   int        // victim-cache entries; 0: none

	noWriteMissAllocate bool
	skipEmptyFootprints bool
}

// baseCell is main with nothing attached.
func baseCell(w workload.Workload, scale workload.Scale, main cache.Params) cell {
	return cell{workload: w.Name(), scale: scale, main: main}
}

// fvcCell attaches a direct-mapped FVC of the given geometry to main,
// exploiting the top (2^bits - 1) profiled values of w.
func fvcCell(w workload.Workload, scale workload.Scale, main cache.Params, entries, bits int) cell {
	c := baseCell(w, scale, main)
	c.fvc = fvc.Params{Entries: entries, LineBytes: main.LineBytes, Bits: bits}
	return c
}

// config builds the cell's simulator configuration; w is the cell's
// workload.
func (c cell) config(w workload.Workload) core.Config {
	cfg := core.Config{
		Main:                c.main,
		VictimEntries:       c.victim,
		NoWriteMissAllocate: c.noWriteMissAllocate,
		SkipEmptyFootprints: c.skipEmptyFootprints,
	}
	if c.fvc != (fvc.Params{}) {
		p := c.fvc
		cfg.FVC = &p
		cfg.FrequentValues = sim.Profiles.TopAccessed(w, c.scale, fvc.MaxValues(p.Bits))
	}
	return cfg
}

// plainLRU reports whether the cell is a plain cache of any
// power-of-two associativity: pure set-indexed LRU, whose miss rate
// one MRC pass gives exactly.
func (c cell) plainLRU() bool {
	return c == cell{workload: c.workload, scale: c.scale, main: c.main} && c.main.Assoc&(c.main.Assoc-1) == 0
}

// cellCache holds the miss rate of every cell measured so far. It
// holds only results: a failed or cancelled measurement stores
// nothing.
type cellCache struct {
	mu  sync.Mutex
	pct map[cell]float64
}

type cellCacheKey struct{}

// WithCellCache returns ctx carrying a fresh cell cache. Experiments
// run under the result share every cell's miss rate, so a cell that
// several figures need is measured once. fvcache.Sweep makes one per
// call; one must not outlive the call, or a repeated sweep would
// measure nothing. An experiment run without one gets its own.
func WithCellCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, cellCacheKey{}, &cellCache{pct: map[cell]float64{}})
}

// cellJob is one pass over a workload's recording that measures its
// cells, all of one line size: an MRC pass when they are plain
// direct-mapped caches, another when they are plain set-associative
// ones, else one fused replay.
type cellJob struct {
	w     workload.Workload
	cells []cell
}

// measureCells returns the miss rate in % of every cell. Cells in the
// context's cell cache are returned as they are. The rest are measured
// per (workload, line size): plain direct-mapped cells by one MRC pass
// (the fast direct-mapped table), plain set-associative cells by
// another, and every other cell by one fused replay, its geometries
// as probe-filter groups of one batch, fanned across opt.Workers. The
// groups of a batch share the line tag, so the event decode, the store
// to the memory image and same-line run detection are paid once per
// line size rather than once per geometry.
func measureCells(opt Options, cells []cell) (map[cell]float64, error) {
	ctx := opt.context()
	cc, _ := ctx.Value(cellCacheKey{}).(*cellCache)
	if cc == nil {
		cc = &cellCache{pct: map[cell]float64{}}
	}
	out := make(map[cell]float64, len(cells))
	var missing []cell
	cc.mu.Lock()
	for _, c := range cells {
		if p, ok := cc.pct[c]; ok {
			out[c] = p
		} else {
			missing = append(missing, c)
		}
	}
	cc.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	jobs, err := planCells(missing)
	if err != nil {
		return nil, err
	}
	res, err := harness.Map(ctx, len(jobs), opt.Workers,
		func(ctx context.Context, i int) ([]float64, error) { return jobs[i].run(ctx) })
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for i, j := range jobs {
		for k, c := range j.cells {
			cc.pct[c] = res[i][k]
			out[c] = res[i][k]
		}
	}
	return out, nil
}

// planCells groups cells, dropping duplicates, into jobs in order of
// first appearance.
func planCells(cells []cell) ([]cellJob, error) {
	var jobs []cellJob
	at := map[cell]int{} // group key -> index in jobs
	for _, c := range cells {
		w, err := workload.Get(c.workload)
		if err != nil {
			return nil, err
		}
		// The MRC pass would read a bad geometry as another one; the
		// replay engine checks the rest of a config itself.
		if err := c.main.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.workload, err)
		}
		// A job is keyed by its workload, scale, line size and kind:
		// Assoc 1 for the direct-mapped MRC pass, 2 for the
		// set-associative one and 0 for the fused replay.
		g := cell{workload: c.workload, scale: c.scale, main: cache.Params{LineBytes: c.main.LineBytes}}
		if c.plainLRU() {
			g.main.Assoc = min(c.main.Assoc, 2)
		}
		i, ok := at[g]
		if !ok {
			i = len(jobs)
			at[g] = i
			jobs = append(jobs, cellJob{w: w})
		}
		if !slices.Contains(jobs[i].cells, c) {
			jobs[i].cells = append(jobs[i].cells, c)
		}
	}
	return jobs, nil
}

// run measures the job's cells, in order.
func (j cellJob) run(ctx context.Context) ([]float64, error) {
	rec, err := recording(j.w, j.cells[0].scale)
	if err != nil {
		return nil, err
	}
	if j.cells[0].plainLRU() {
		geoms := make([]cache.Params, len(j.cells))
		for i, c := range j.cells {
			geoms[i] = c.main
		}
		out, err := lruMissPcts(ctx, rec, geoms)
		if err != nil {
			return nil, fmt.Errorf("mrc pass %s: %w", j.w.Name(), err)
		}
		return out, nil
	}
	cfgs := make([]core.Config, len(j.cells))
	for i, c := range j.cells {
		cfgs[i] = c.config(j.w)
	}
	res, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{Label: j.w.Name(), Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("measuring %s: %w", j.w.Name(), err)
	}
	out := make([]float64, len(j.cells))
	for i, r := range res {
		out[i] = r.Stats.MissRate() * 100
	}
	return out, nil
}

// lruMissPcts computes the miss percentage of plain LRU caches of one
// line size, in order, from one MRC pass: each geometry is the point
// of associativity Assoc on the curve of its set count, exact in miss
// counts. With every geometry direct mapped the pass is MaxAssoc 1,
// the fused last-line-table fast path (see mrc's dmtable.go).
func lruMissPcts(ctx context.Context, rec *trace.Recording, geoms []cache.Params) ([]float64, error) {
	maxSize, maxAssoc := 0, 1
	sets := make([]int, len(geoms))
	for i, g := range geoms {
		maxSize = max(maxSize, g.SizeBytes)
		maxAssoc = max(maxAssoc, g.Assoc)
		sets[i] = g.NumSets()
	}
	res, err := mrc.Analyze(rec, mrc.Options{
		LineBytes:    geoms[0].LineBytes,
		MaxSizeBytes: maxSize,
		SetCounts:    sets,
		MaxAssoc:     maxAssoc,
		Ctx:          ctx,
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(geoms))
	for i, g := range geoms {
		for _, c := range res.Curves {
			if c.Sets != sets[i] {
				continue
			}
			for _, p := range c.Points {
				if p.Assoc == g.Assoc {
					out[i] = p.MissRatio * 100
				}
			}
		}
	}
	return out, nil
}
