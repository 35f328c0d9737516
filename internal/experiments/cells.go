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
		cfg.FrequentValues = topAccessed(w, c.scale, fvc.MaxValues(p.Bits))
	}
	return cfg
}

// plainDM reports whether the cell is a plain direct-mapped cache:
// pure set-indexed LRU, whose miss rate one MRC pass gives exactly.
func (c cell) plainDM() bool {
	return c.main.Assoc == 1 && c == cell{workload: c.workload, scale: c.scale, main: c.main}
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
// cells: an MRC pass when they are plain direct-mapped caches of one
// line size, else one fused replay of cells that share one main
// geometry.
type cellJob struct {
	w     workload.Workload
	cells []cell
}

// measureCells returns the miss rate in % of every cell. Cells in the
// context's cell cache are returned as they are. The rest are measured
// by one MRC pass per (workload, line size) for plain direct-mapped
// cells and one fused replay per (workload, main geometry) for the
// others, fanned across opt.Workers. Fused batches stay per geometry:
// lanes of different geometries share no probe filter, and one batch
// per workload measured slower.
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
		// A group is keyed by its workload, scale and main geometry,
		// and an MRC group by the line size alone.
		g := cell{workload: c.workload, scale: c.scale, main: c.main}
		if c.plainDM() {
			g.main = cache.Params{LineBytes: c.main.LineBytes}
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
	out := make([]float64, len(j.cells))
	if j.cells[0].plainDM() {
		line := j.cells[0].main.LineBytes
		sizes := make([]int, len(j.cells))
		for i, c := range j.cells {
			sizes[i] = c.main.SizeBytes
		}
		bySize, err := dmcMissPcts(ctx, rec, line, sizes)
		if err != nil {
			return nil, fmt.Errorf("mrc pass %s: %w", j.w.Name(), err)
		}
		for i, sz := range sizes {
			out[i] = bySize[sz]
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
	for i, r := range res {
		out[i] = r.Stats.MissRate() * 100
	}
	return out, nil
}

// dmcMissPcts computes plain direct-mapped-cache miss percentages
// analytically: ONE Mattson reuse-distance pass per line size replaces
// one fused-replay lane per size point. The result is keyed by cache
// size in bytes and is bit-identical (in miss counts) to a replay of
// each geometry — exact because a plain DMC is pure set-indexed LRU.
func dmcMissPcts(ctx context.Context, rec *trace.Recording, lineBytes int, sizesBytes []int) (map[int]float64, error) {
	maxSize := 0
	sets := make([]int, 0, len(sizesBytes))
	for _, sz := range sizesBytes {
		maxSize = max(maxSize, sz)
		sets = append(sets, sz/lineBytes)
	}
	res, err := mrc.Analyze(rec, mrc.Options{
		LineBytes:    lineBytes,
		MaxSizeBytes: maxSize,
		SetCounts:    sets,
		// Only the direct-mapped point of each geometry is consumed, so
		// MaxAssoc 1 selects the fused last-line-table fast path (which
		// needs no Shards fan-out — see mrc's dmtable.go).
		MaxAssoc: 1,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(res.Curves))
	for _, c := range res.Curves {
		// The direct-mapped point of each per-set curve is assoc 1.
		out[c.Sets*lineBytes] = c.Points[0].MissRatio * 100
	}
	return out, nil
}
