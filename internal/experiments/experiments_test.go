package experiments

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/obs"
	"fvcache/internal/sim"
	"fvcache/internal/workload"
)

func testOpts() Options { return Options{Scale: workload.Test, Workers: 4} }

func TestRegistryComplete(t *testing.T) {
	all := All()
	wantIDs := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"tab1", "tab2", "tab3", "tab4",
		"xclass", "xablation", "xonline", "xenergy", "xcompress", "xl2", "xfvcassoc",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	got := map[string]bool{}
	for _, e := range all {
		got[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range wantIDs {
		if !got[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	// Stable ordering: figures numerically, then tables, then the
	// x-series extensions.
	if all[0].ID != "fig1" || all[15].ID != "tab4" || all[len(all)-1].ID != "xonline" {
		t.Errorf("ordering wrong: first=%s mid=%s last=%s", all[0].ID, all[15].ID, all[len(all)-1].ID)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Error("unknown id must error")
	}
	e, err := Get("fig9")
	if err != nil || e.ID != "fig9" {
		t.Errorf("Get(fig9) = %v, %v", e.ID, err)
	}
}

// runAndCheck executes an experiment at test scale and asserts the
// output mentions every expected substring.
func runAndCheck(t *testing.T, id string, wants ...string) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Run(testOpts(), &sb); err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	out := sb.String()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("%s output missing %q:\n%s", id, w, truncate(out))
		}
	}
	return out
}

func truncate(s string) string {
	if len(s) > 1500 {
		return s[:1500] + "..."
	}
	return s
}

func TestFig1(t *testing.T) {
	out := runAndCheck(t, "fig1", "Figure 1", "goboard (099.go)", "lzcomp (129.compress)", "acc top10")
	if !strings.Contains(out, "%") {
		t.Error("expected percentage cells")
	}
}

func TestFig2(t *testing.T) {
	runAndCheck(t, "fig2", "Figure 2", "stencil2d (102.swim)", "mgrid3d (107.mgrid)")
}

func TestFig3(t *testing.T) {
	runAndCheck(t, "fig3", "Figure 3a", "Figure 3b", "unique")
}

func TestFig4(t *testing.T) {
	runAndCheck(t, "fig4", "Figure 4", "occurring", "accessed")
}

func TestFig5(t *testing.T) {
	runAndCheck(t, "fig5", "Figure 5", "mean over")
}

func TestFig9(t *testing.T) {
	runAndCheck(t, "fig9", "Figure 9a", "Figure 9b", "victim cache")
}

func TestFig10(t *testing.T) {
	runAndCheck(t, "fig10", "Figure 10", "64e", "4096e", "cpusim (124.m88ksim)")
}

func TestFig11(t *testing.T) {
	runAndCheck(t, "fig11", "Figure 11", "frequent codes", "x")
}

func TestFig14(t *testing.T) {
	runAndCheck(t, "fig14", "Figure 14", "2-way reduction", "4-way reduction")
}

func TestFig15(t *testing.T) {
	runAndCheck(t, "fig15", "Figure 15a", "Figure 15b", "VC reduction", "FVC reduction")
}

func TestTab1(t *testing.T) {
	runAndCheck(t, "tab1", "Table 1", "rank", "goboard acc")
}

func TestTab2(t *testing.T) {
	out := runAndCheck(t, "tab2", "Table 2", "test 7", "train 10")
	if !strings.Contains(out, "/7") || !strings.Contains(out, "/10") {
		t.Error("expected X/Y overlap cells")
	}
}

func TestTab3(t *testing.T) {
	runAndCheck(t, "tab3", "Table 3", "top1 order", "top7 identity")
}

func TestTab4(t *testing.T) {
	out := runAndCheck(t, "tab4", "Table 4", "measured", "paper", "99.3%")
	_ = out
}

// Fig12 and Fig13 are the heavy sweeps; run them at test scale to keep
// CI time modest but still assert structure end to end.
func TestFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	runAndCheck(t, "fig12", "Figure 12", "8KB/16B", "64KB/64B", "top 7 values")
}

func TestFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	runAndCheck(t, "fig13", "Figure 13", "4KB+FVC", "64KB", "7 frequent value(s)")
}

func TestOrderKey(t *testing.T) {
	if !(orderKey("fig2") < orderKey("fig10")) {
		t.Error("fig2 must sort before fig10")
	}
	if !(orderKey("fig15") < orderKey("tab1")) {
		t.Error("figures must sort before tables")
	}
}

func TestTopAccessedMemoized(t *testing.T) {
	w, _ := workload.Get("goboard")
	a := sim.Profiles.TopAccessed(w, workload.Test, 7)
	b := sim.Profiles.TopAccessed(w, workload.Test, 10)
	if len(a) != 7 || len(b) != 10 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("top-7 must be a prefix of top-10 (same memoized profile)")
		}
	}
}

func TestReduction(t *testing.T) {
	if got := reduction(2, 1); got != 50 {
		t.Errorf("reduction(2,1) = %v", got)
	}
	if got := reduction(0, 1); got != 0 {
		t.Errorf("reduction(0,1) = %v", got)
	}
}

var _ = io.Discard // keep io imported for future use

func TestXClass(t *testing.T) {
	runAndCheck(t, "xclass", "three-C", "compulsory", "conflict")
}

func TestXAblation(t *testing.T) {
	runAndCheck(t, "xablation", "ablations", "no write-miss alloc", "skip empty footprints")
}

func TestXOnline(t *testing.T) {
	runAndCheck(t, "xonline", "online", "profiled FVT", "FVT updates")
}

func TestXEnergy(t *testing.T) {
	runAndCheck(t, "xenergy", "energy", "saving", "traffic KB")
}

func TestXCompress(t *testing.T) {
	runAndCheck(t, "xcompress", "FVcomp", "lines compressed", "FPC bits/word")
}

func TestXL2(t *testing.T) {
	runAndCheck(t, "xl2", "L2", "off-chip", "traffic saving")
}

func TestXFVCAssoc(t *testing.T) {
	runAndCheck(t, "xfvcassoc", "associativity", "2-way FVC red.", "4-way FVC red.")
}

// TestDMCMissPctsMatchesReplay pins the analytic path the cell cache
// routes every plain direct-mapped cell to: the Mattson-pass miss
// percentages must equal fused-replay measurements of the same plain
// direct-mapped geometries.
func TestDMCMissPctsMatchesReplay(t *testing.T) {
	w, err := workload.Get("goboard")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := recording(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	const line = 32
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 64 << 10}
	var geoms []cache.Params
	var cfgs []core.Config
	for _, sz := range sizes {
		geoms = append(geoms, cache.Params{SizeBytes: sz, LineBytes: line, Assoc: 1})
		cfgs = append(cfgs, core.Config{Main: geoms[len(geoms)-1]})
	}
	analytic, err := lruMissPcts(context.Background(), rec, geoms)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.MeasureRecordedBatch(rec, cfgs, sim.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		if want := replay[i].Stats.MissRate() * 100; analytic[i] != want {
			t.Errorf("%dKB: analytic %v%%, replay %v%%", sz>>10, analytic[i], want)
		}
	}
}

// cellCase is a cell next to the configuration it stands for, built by
// hand.
type cellCase struct {
	c   cell
	cfg core.Config
}

// cellCases lists every kind of cell the cell cache routes, for w at
// test scale: plain direct-mapped caches of several sizes and lines
// and plain 2- and 4-way caches of two line sizes (MRC), direct-mapped
// caches with FVCs of 1, 3 and 7 values, FVC-augmented 2- and 4-way
// caches, a 2-way FVC, both FVC ablations and a victim cache (fused
// replay).
func cellCases(w workload.Workload) []cellCase {
	const scale = workload.Test
	geom := func(sz, line, assoc int) cache.Params {
		return cache.Params{SizeBytes: sz, LineBytes: line, Assoc: assoc}
	}
	withFV := func(main cache.Params, entries, bits int) core.Config {
		return core.Config{
			Main:           main,
			FVC:            &fvc.Params{Entries: entries, LineBytes: main.LineBytes, Bits: bits},
			FrequentValues: sim.Profiles.TopAccessed(w, scale, fvc.MaxValues(bits)),
		}
	}
	var cases []cellCase
	for _, g := range []cache.Params{geom(4<<10, 32, 1), geom(8<<10, 16, 1), geom(16<<10, 32, 1), geom(64<<10, 64, 1), geom(4<<10, 8, 1)} {
		cases = append(cases, cellCase{baseCell(w, scale, g), core.Config{Main: g}})
	}
	dm := geom(16<<10, 32, 1)
	for _, bits := range []int{1, 2, 3} {
		cases = append(cases, cellCase{fvcCell(w, scale, dm, 512, bits), withFV(dm, 512, bits)})
	}
	for _, a := range []int{2, 4} {
		g := geom(16<<10, 32, a)
		cases = append(cases,
			cellCase{baseCell(w, scale, g), core.Config{Main: g}},
			cellCase{fvcCell(w, scale, g, 512, 3), withFV(g, 512, 3)})
	}
	// A set-associative MRC pass whose curves have different ladders.
	for _, g := range []cache.Params{geom(8<<10, 16, 2), geom(4<<10, 16, 4)} {
		cases = append(cases, cellCase{baseCell(w, scale, g), core.Config{Main: g}})
	}
	assoc := fvcCell(w, scale, dm, 512, 3)
	assoc.fvc.Assoc = 2
	assocCfg := withFV(dm, 512, 3)
	assocCfg.FVC.Assoc = 2
	noAlloc := fvcCell(w, scale, dm, 512, 3)
	noAlloc.noWriteMissAllocate = true
	noAllocCfg := withFV(dm, 512, 3)
	noAllocCfg.NoWriteMissAllocate = true
	skip := fvcCell(w, scale, dm, 512, 3)
	skip.skipEmptyFootprints = true
	skipCfg := withFV(dm, 512, 3)
	skipCfg.SkipEmptyFootprints = true
	small := geom(4<<10, 32, 1)
	victim := baseCell(w, scale, small)
	victim.victim = 16
	return append(cases,
		cellCase{assoc, assocCfg},
		cellCase{noAlloc, noAllocCfg},
		cellCase{skip, skipCfg},
		cellCase{victim, core.Config{Main: small, VictimEntries: 16}})
}

// TestCellCacheMatchesReplay checks the cell cache's routing and
// fusing against the plainest measurement: every cell's miss rate must
// equal a standalone replay of that one configuration, bit for bit.
func TestCellCacheMatchesReplay(t *testing.T) {
	ws, err := fvlSuite()
	if err != nil {
		t.Fatal(err)
	}
	var cases []cellCase
	for _, w := range ws {
		cases = append(cases, cellCases(w)...)
	}
	cells := make([]cell, len(cases))
	for i, k := range cases {
		cells[i] = k.c
	}
	pct, err := measureCells(testOpts(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cases {
		w, err := workload.Get(k.c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := recording(w, workload.Test)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.MeasureRecordedBatch(rec, []core.Config{k.cfg}, sim.MeasureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := res[0].Stats.MissRate() * 100; pct[k.c] != want {
			t.Errorf("%s %+v: cell cache %v%%, replay %v%%", k.c.workload, k.c, pct[k.c], want)
		}
	}
}

// TestPlanCellsRouting checks where the cell cache sends each cell:
// plain direct-mapped cells to one MRC pass per (workload, line size),
// plain set-associative cells to another, every other cell to one
// fused replay per (workload, line size), each distinct cell exactly
// once.
func TestPlanCellsRouting(t *testing.T) {
	ws, err := fvlSuite()
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, w := range ws[:2] {
		for _, k := range cellCases(w) {
			cells = append(cells, k.c, k.c) // each twice
		}
	}
	jobs, err := planCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	// kind is 1 for the direct-mapped MRC pass, 2 for the
	// set-associative one and 0 for the fused replay.
	kind := func(c cell) int {
		if !c.plainLRU() {
			return 0
		}
		return min(c.main.Assoc, 2)
	}
	type group struct {
		workload string
		kind     int
		line     int
	}
	groups := map[group]bool{}
	planned := map[cell]bool{}
	for _, j := range jobs {
		first := j.cells[0]
		g := group{first.workload, kind(first), first.main.LineBytes}
		if groups[g] {
			t.Errorf("two jobs for %+v", g)
		}
		groups[g] = true
		for _, c := range j.cells {
			switch {
			case planned[c]:
				t.Errorf("%+v planned twice", c)
			case c.workload != j.w.Name() || c.workload != first.workload:
				t.Errorf("%+v in a %s job", c, j.w.Name())
			case kind(c) != g.kind:
				t.Errorf("%+v in a job of kind %d", c, g.kind)
			case c.main.LineBytes != g.line:
				t.Errorf("%+v in a job of %dB lines", c, g.line)
			}
			planned[c] = true
		}
	}
	if want := len(cells) / 2; len(planned) != want {
		t.Errorf("planned %d cells, want %d", len(planned), want)
	}
	bad := baseCell(ws[0], workload.Test, cache.Params{SizeBytes: 3 << 10, LineBytes: 32, Assoc: 1})
	if _, err := planCells([]cell{bad}); err == nil {
		t.Error("a cell with 96 sets was planned")
	}
}

// TestCellCacheCancelStoresNothing cancels a measurement once its first
// fused replay has finished: the call fails and the cache keeps
// nothing, not even the passes that finished.
func TestCellCacheCancelStoresNothing(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	ctx, cancel := context.WithCancel(WithCellCache(context.Background()))
	defer cancel()
	cc := ctx.Value(cellCacheKey{}).(*cellCache)
	ws, err := fvlSuite()
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, w := range ws {
		for _, k := range cellCases(w) {
			cells = append(cells, k.c)
		}
	}
	replayed, done := obs.ReplayEvents.Load(), make(chan struct{})
	go func() {
		for obs.ReplayEvents.Load() == replayed {
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
		cancel()
	}()
	_, err = measureCells(Options{Scale: workload.Test, Workers: 1, Ctx: ctx}, cells)
	close(done)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("measureCells = %v, want context.Canceled", err)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.pct) != 0 {
		t.Errorf("cancelled measurement cached %d cells", len(cc.pct))
	}
}
