// Tests for the public fvcache facade: the stable surface must agree
// bit-for-bit with the internal engine it wraps, honor contexts, and
// stream sweep artifacts.
package fvcache_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"fvcache"
	"fvcache/internal/sim"
	"fvcache/internal/workload"
)

func baseConfig() fvcache.Config {
	return fvcache.Config{Main: fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}}
}

func TestFacadeMeasureMatchesInternal(t *testing.T) {
	ctx := context.Background()
	got, err := fvcache.Measure(ctx, fvcache.MeasureRequest{
		Workload: "goboard", Scale: fvcache.Test, Config: baseConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("goboard")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Measure(w, workload.Test, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got != (fvcache.MeasureResult{Stats: want}) {
		t.Errorf("facade Measure diverged from sim.Measure:\n got %+v\nwant %+v", got, want)
	}
}

func TestFacadeMeasureBatchMatchesMeasure(t *testing.T) {
	ctx := context.Background()
	values, err := fvcache.Profile(ctx, fvcache.ProfileRequest{Workload: "goboard", Scale: fvcache.Test, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 7 {
		t.Fatalf("Profile returned %d values, want 7", len(values))
	}
	cfgs := []fvcache.Config{
		baseConfig(),
		{
			Main:           fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
			FVC:            &fvcache.FVCParams{Entries: 256, LineBytes: 32, Bits: 3},
			FrequentValues: values,
		},
	}
	batch, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{
		Workload: "goboard", Scale: fvcache.Test, Configs: cfgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		one, err := fvcache.Measure(ctx, fvcache.MeasureRequest{Workload: "goboard", Scale: fvcache.Test, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one {
			t.Errorf("config %d: batch result diverged:\n got %+v\nwant %+v", i, batch[i], one)
		}
	}
	if batch[1].Stats.FVCHits == 0 {
		t.Error("FVC configuration recorded no FVC hits")
	}
}

func TestFacadeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fvcache.Measure(ctx, fvcache.MeasureRequest{Workload: "goboard", Scale: fvcache.Test, Config: baseConfig()}); !errors.Is(err, context.Canceled) {
		t.Errorf("Measure: err = %v, want context.Canceled", err)
	}
	if _, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{Workload: "goboard", Scale: fvcache.Test, Configs: []fvcache.Config{baseConfig()}}); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureBatch: err = %v, want context.Canceled", err)
	}
	if _, err := fvcache.Profile(ctx, fvcache.ProfileRequest{Workload: "goboard", Scale: fvcache.Test, K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("Profile: err = %v, want context.Canceled", err)
	}
}

func TestFacadeBadRequests(t *testing.T) {
	ctx := context.Background()
	if _, err := fvcache.Measure(ctx, fvcache.MeasureRequest{Workload: "nope", Scale: fvcache.Test}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{Workload: "goboard", Scale: fvcache.Test}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := fvcache.Profile(ctx, fvcache.ProfileRequest{Workload: "goboard", Scale: fvcache.Test, K: 0}); err == nil {
		t.Error("K=0 profile accepted")
	}
	if _, err := fvcache.Sweep(ctx, fvcache.SweepRequest{Artifacts: []string{"fig999"}, Scale: fvcache.Test}); err == nil {
		t.Error("unknown artifact accepted")
	}
}

// panickingWorkload blows up partway through its run.
type panickingWorkload struct{}

func (panickingWorkload) Name() string        { return "panicking" }
func (panickingWorkload) Analogue() string    { return "none" }
func (panickingWorkload) Description() string { return "panics mid-run (tests only)" }
func (panickingWorkload) FVL() bool           { return false }
func (panickingWorkload) Run(env *fvcache.Env, _ fvcache.Scale) {
	env.Store(env.Alloc(4), 1)
	panic("workload blew up")
}

// TestFacadeProfileWorkloadPanic: Profile of a workload whose run
// panics returns the recording's error and does not panic its caller.
// Registering the workload would add it to the registry the other
// tests of this binary walk, so unless the test binary runs this test
// alone it re-runs itself alone in a child process.
func TestFacadeProfileWorkloadPanic(t *testing.T) {
	const alone = "^TestFacadeProfileWorkloadPanic$"
	if flag.Lookup("test.run").Value.String() != alone {
		out, err := exec.Command(os.Args[0], "-test.run="+alone, "-test.v").CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestFacadeProfileWorkloadPanic")) {
			t.Fatalf("run alone: %v\n%s", err, out)
		}
		return
	}
	if _, err := fvcache.LookupWorkload("panicking"); err != nil {
		fvcache.RegisterWorkload(panickingWorkload{})
	}
	vals, err := fvcache.Profile(context.Background(), fvcache.ProfileRequest{Workload: "panicking", Scale: fvcache.Test, K: 7})
	if err == nil || !strings.Contains(err.Error(), "workload blew up") {
		t.Errorf("Profile = %v, %v; want the workload's panic as an error", vals, err)
	}
}

func TestFacadeWorkloadsAndArtifacts(t *testing.T) {
	wls := fvcache.Workloads()
	if len(wls) < 12 {
		t.Fatalf("Workloads() returned %d entries, want the full suite", len(wls))
	}
	seen := map[string]bool{}
	for _, w := range wls {
		if w.Name == "" || w.Analogue == "" {
			t.Errorf("incomplete workload info: %+v", w)
		}
		seen[w.Name] = true
	}
	for _, want := range []string{"goboard", "ccomp", "strproc"} {
		if !seen[want] {
			t.Errorf("workload %q missing from listing", want)
		}
	}
	arts := fvcache.Artifacts()
	if len(arts) == 0 {
		t.Fatal("Artifacts() empty")
	}
	ids := map[string]bool{}
	for _, a := range arts {
		ids[a.ID] = true
	}
	if !ids["fig10"] || !ids["tab1"] {
		t.Errorf("artifact listing missing paper staples: %v", arts)
	}
}

func TestFacadeCharacterize(t *testing.T) {
	c, err := fvcache.Characterize(context.Background(), fvcache.CharacterizeRequest{Workload: "goboard", Scale: fvcache.Test})
	if err != nil {
		t.Fatal(err)
	}
	if c.Accesses == 0 || c.DistinctValues == 0 {
		t.Fatalf("empty characterization: %+v", c)
	}
	if cov := c.CoverageOfTopK(10); cov <= 0 || cov > 1 {
		t.Errorf("CoverageOfTopK(10) = %v, want (0,1]", cov)
	}
	if c.CoverageOfTopK(1) > c.CoverageOfTopK(10) {
		t.Error("coverage must be monotone in k")
	}
	top := c.TopValues(3)
	if len(top) != 3 || top[0].Count < top[1].Count {
		t.Errorf("TopValues(3) malformed: %v", top)
	}
	if c.MRC != nil {
		t.Error("MRC stanza computed without MRCLineBytes")
	}
}

func TestFacadeMissRateCurves(t *testing.T) {
	ctx := context.Background()
	res, err := fvcache.MissRateCurves(ctx, fvcache.MRCRequest{
		Workload: "goboard", Scale: fvcache.Test,
		LineBytes: 32, MaxSizeBytes: 32 << 10, SetCounts: []int{1, 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 || res.Accesses == 0 {
		t.Fatalf("malformed result: %+v", res)
	}
	// Each curve point names an exact LRU geometry; spot-check the
	// direct-mapped point of the 256-set family against a replay.
	dm := res.Curves[1].Points[0]
	if dm.Assoc != 1 || dm.SizeBytes != 256*32 {
		t.Fatalf("unexpected DM point: %+v", dm)
	}
	m, err := fvcache.Measure(ctx, fvcache.MeasureRequest{
		Workload: "goboard", Scale: fvcache.Test,
		Config: fvcache.Config{Main: fvcache.CacheParams{SizeBytes: dm.SizeBytes, LineBytes: 32, Assoc: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Misses != dm.Misses {
		t.Errorf("DM point misses %d, replay %d", dm.Misses, m.Stats.Misses)
	}
	// Miss counts are monotone non-increasing along each curve.
	for _, c := range res.Curves {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Misses > c.Points[i-1].Misses {
				t.Errorf("sets=%d: misses not monotone at %d: %+v", c.Sets, i, c.Points)
			}
		}
	}
	// Bad requests and cancellation.
	if _, err := fvcache.MissRateCurves(ctx, fvcache.MRCRequest{Workload: "nope", Scale: fvcache.Test, LineBytes: 32}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := fvcache.MissRateCurves(ctx, fvcache.MRCRequest{Workload: "goboard", Scale: fvcache.Test, LineBytes: 24}); err == nil {
		t.Error("invalid line size accepted")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fvcache.MissRateCurves(cctx, fvcache.MRCRequest{Workload: "goboard", Scale: fvcache.Test, LineBytes: 32}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestFacadeCharacterizeMRCStanza(t *testing.T) {
	ctx := context.Background()
	c, err := fvcache.Characterize(ctx, fvcache.CharacterizeRequest{
		Workload: "goboard", Scale: fvcache.Test, MRCLineBytes: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MRC == nil {
		t.Fatal("MRCLineBytes set but no MRC stanza")
	}
	if c.MRC.Accesses != c.Accesses {
		t.Errorf("MRC accesses %d != characterization accesses %d", c.MRC.Accesses, c.Accesses)
	}
	if len(c.MRC.Curves) != 1 || c.MRC.Curves[0].Sets != 1 {
		t.Fatalf("want the fully-associative curve, got %+v", c.MRC.Curves)
	}
	if _, err := fvcache.Characterize(ctx, fvcache.CharacterizeRequest{
		Workload: "goboard", Scale: fvcache.Test, MRCLineBytes: 24,
	}); err == nil {
		t.Error("invalid MRCLineBytes accepted")
	}
}

func TestFacadeSweepStreamsArtifacts(t *testing.T) {
	var streamed []fvcache.ArtifactResult
	var stdout bytes.Buffer
	res, err := fvcache.Sweep(context.Background(), fvcache.SweepRequest{
		Artifacts:  []string{"tab1"},
		Scale:      fvcache.Test,
		Stdout:     &stdout,
		OnArtifact: func(ar fvcache.ArtifactResult) { streamed = append(streamed, ar) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Done != 1 {
		t.Fatalf("sweep result: %+v", res)
	}
	if len(streamed) != 1 || streamed[0].ID != "tab1" || streamed[0].Status != "done" {
		t.Fatalf("streaming callback: %+v", streamed)
	}
	if streamed[0].Output == "" || !strings.Contains(streamed[0].Output, "tab1") {
		t.Error("streamed artifact carries no output")
	}
	if res.Artifacts[0].Output != streamed[0].Output {
		t.Error("final result output differs from streamed output")
	}
	if stdout.Len() == 0 {
		t.Error("Stdout writer received nothing")
	}
	var summary bytes.Buffer
	res.PrintSummary(&summary)
	if !strings.Contains(summary.String(), "1 done") {
		t.Errorf("summary: %q", summary.String())
	}
}
