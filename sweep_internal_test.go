package fvcache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fvcache/internal/experiments"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
)

// fakeExperiments builds three experiments; the one named failID
// panics.
func fakeExperiments(failID string, ran *[]string) []experiments.Experiment {
	mk := func(id string) experiments.Experiment {
		return experiments.Experiment{ID: id, Title: "artifact " + id, Run: func(_ experiments.Options, out io.Writer) error {
			*ran = append(*ran, id)
			if id == failID {
				panic("injected failure in " + id)
			}
			fmt.Fprintf(out, "content of %s\n", id)
			return nil
		}}
	}
	return []experiments.Experiment{mk("fig1"), mk("fig2"), mk("tab1")}
}

// TestSweepGracefulDegradation is the acceptance scenario: one
// artificially failing experiment, all other artifacts complete, the
// summary names the failure with its recovered stack, and a rerun with
// the same output directory skips completed artifacts via the
// manifest.
func TestSweepGracefulDegradation(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	req := SweepRequest{Scale: Test, OutDir: dir, Resume: true}

	res := runSweep(context.Background(), fakeExperiments("fig2", &ran), req)
	if res.OK() {
		t.Fatal("sweep with a failing artifact must not be OK")
	}
	if res.Done != 2 {
		t.Errorf("done = %d, want 2 (siblings of the failure must complete)", res.Done)
	}
	if res.Failed != 1 || res.Artifacts[1].ID != "fig2" || res.Artifacts[1].Status != "FAILED" {
		t.Fatalf("artifacts = %+v, want exactly fig2 failed", res.Artifacts)
	}
	var sb strings.Builder
	res.PrintSummary(&sb)
	out := sb.String()
	for _, want := range []string{"fig2", "injected failure in fig2", "1 failed", "sweep_internal_test.go"} {
		if !strings.Contains(out, want) {
			t.Errorf("failure summary missing %q:\n%s", want, out)
		}
	}
	// Completed artifacts exist, the failed one left no final file.
	for _, id := range []string{"fig1", "tab1"} {
		if _, err := os.Stat(filepath.Join(dir, id+".txt")); err != nil {
			t.Errorf("missing artifact %s.txt: %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2.txt")); err == nil {
		t.Error("failed artifact must not produce a final artifact file")
	}

	// Rerun: checkpointed artifacts are skipped, only the failure reruns.
	ran = nil
	res2 := runSweep(context.Background(), fakeExperiments("", &ran), req)
	if !res2.OK() {
		t.Fatalf("rerun failed: %+v", res2.Artifacts)
	}
	if res2.Skipped != 2 {
		t.Errorf("rerun skipped %d, want 2", res2.Skipped)
	}
	if len(ran) != 1 || ran[0] != "fig2" {
		t.Errorf("rerun executed %v, want only fig2", ran)
	}
}

// TestSweepStreamsEveryExecutedArtifact checks that OnArtifact sees
// every executed artifact, a panicking one included, once its outcome
// is final, and with the value the result holds.
func TestSweepStreamsEveryExecutedArtifact(t *testing.T) {
	dir := t.TempDir()
	mk := func(id string, run func() error) experiments.Experiment {
		return experiments.Experiment{ID: id, Title: "artifact " + id, Run: func(_ experiments.Options, out io.Writer) error {
			fmt.Fprintf(out, "content of %s\n", id)
			return run()
		}}
	}
	todo := []experiments.Experiment{
		mk("pass", func() error { return nil }),
		mk("boom", func() error { panic("injected failure") }),
		mk("fail", func() error { return errors.New("injected error") }),
	}
	req := SweepRequest{Scale: Test, OutDir: dir}
	var streamed []ArtifactResult
	req.OnArtifact = func(ar ArtifactResult) {
		streamed = append(streamed, ar)
		_, err := os.Stat(filepath.Join(dir, ar.ID+".txt"))
		done := harness.LoadManifest(dir, checkpointKey(req)).IsDone(dir, ar.ID)
		if ar.Status == "done" && (err != nil || !done) {
			t.Errorf("%s streamed before its file and checkpoint were final (stat %v, checkpointed %v)", ar.ID, err, done)
		}
	}
	res := runSweep(context.Background(), todo, req)
	if len(streamed) != 3 {
		t.Fatalf("streamed %d artifacts, want 3: %+v", len(streamed), streamed)
	}
	if got := streamed[1]; got.ID != "boom" || got.Status != "FAILED" || !strings.Contains(got.Err, "injected failure") {
		t.Errorf("panicking artifact streamed as %+v", got)
	}
	if !reflect.DeepEqual(streamed, res.Artifacts) {
		t.Errorf("streamed values differ from the result:\n%+v\n%+v", streamed, res.Artifacts)
	}
	if res.Done != 1 || res.Failed != 2 {
		t.Errorf("done %d failed %d, want 1 and 2", res.Done, res.Failed)
	}
}

func TestSweepKeyChangeInvalidatesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	runSweep(context.Background(), fakeExperiments("", &ran),
		SweepRequest{Scale: Test, OutDir: dir, Resume: true})
	ran = nil
	res := runSweep(context.Background(), fakeExperiments("", &ran),
		SweepRequest{Scale: Ref, OutDir: dir, Resume: true})
	if res.Skipped != 0 {
		t.Errorf("key change skipped %d artifacts, want 0", res.Skipped)
	}
	if len(ran) != 3 {
		t.Errorf("key change reran %d artifacts, want 3", len(ran))
	}
}

func TestSweepDeletedOutputInvalidatesEntry(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	req := SweepRequest{Scale: Test, OutDir: dir, Resume: true}
	runSweep(context.Background(), fakeExperiments("", &ran), req)
	if err := os.Remove(filepath.Join(dir, "fig1.txt")); err != nil {
		t.Fatal(err)
	}
	ran = nil
	runSweep(context.Background(), fakeExperiments("", &ran), req)
	if len(ran) != 1 || ran[0] != "fig1" {
		t.Errorf("after deleting fig1.txt, rerun executed %v, want only fig1", ran)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []string
	todo := fakeExperiments("", &ran)
	// Cancel from inside the first artifact: the rest must be marked
	// canceled, still appearing in the result.
	orig := todo[0].Run
	todo[0].Run = func(opt experiments.Options, w io.Writer) error {
		cancel()
		return orig(opt, w)
	}
	res := runSweep(ctx, todo, SweepRequest{Scale: Test})
	if res.Canceled != 2 {
		t.Errorf("canceled = %d, want 2", res.Canceled)
	}
	if res.OK() {
		t.Error("cancelled sweep must not be OK")
	}
	if len(res.Artifacts) != 3 {
		t.Errorf("result must cover all artifacts, got %d", len(res.Artifacts))
	}
}

func TestSweepNoOutDirWritesStdout(t *testing.T) {
	var sb strings.Builder
	var ran []string
	res := runSweep(context.Background(), fakeExperiments("", &ran), SweepRequest{Scale: Test, Stdout: &sb})
	if !res.OK() {
		t.Fatalf("sweep failed: %+v", res.Artifacts)
	}
	for _, id := range []string{"fig1", "fig2", "tab1"} {
		if !strings.Contains(sb.String(), "content of "+id) {
			t.Errorf("stdout missing output of %s", id)
		}
	}
}

// TestManifestResumeAfterCorruption is the full write -> corrupt ->
// resume cycle through the sweep: a torn checkpoint must degrade to
// redoing work, and the redo must rebuild a valid checkpoint.
func TestManifestResumeAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	var runs []string
	mk := func(id string) experiments.Experiment {
		return experiments.Experiment{ID: id, Run: func(_ experiments.Options, out io.Writer) error {
			runs = append(runs, id)
			fmt.Fprintln(out, "artifact", id)
			return nil
		}}
	}
	todo := []experiments.Experiment{mk("a"), mk("b")}
	req := SweepRequest{Scale: Test, OutDir: dir, Resume: true}

	if res := runSweep(context.Background(), todo, req); !res.OK() {
		t.Fatalf("first sweep failed: %+v", res.Artifacts)
	}
	if len(runs) != 2 {
		t.Fatalf("first sweep ran %v, want [a b]", runs)
	}

	// Second run resumes: nothing re-executes.
	runs = nil
	res := runSweep(context.Background(), todo, req)
	if len(runs) != 0 {
		t.Errorf("resumed sweep re-ran %v", runs)
	}
	if res.Skipped != 2 {
		t.Errorf("resumed sweep skipped %d artifacts, want 2", res.Skipped)
	}

	// Corrupt the checkpoint: the sweep redoes everything and leaves a
	// valid checkpoint behind.
	if err := os.WriteFile(filepath.Join(dir, harness.ManifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs = nil
	if res := runSweep(context.Background(), todo, req); !res.OK() {
		t.Fatalf("post-corruption sweep failed: %+v", res.Artifacts)
	}
	if len(runs) != 2 {
		t.Errorf("post-corruption sweep ran %v, want [a b]", runs)
	}
	m := harness.LoadManifest(dir, checkpointKey(req))
	if !m.IsDone(dir, "a") || !m.IsDone(dir, "b") {
		t.Error("redo did not rebuild the checkpoint")
	}
}

// TestSweepCheckpointWriteErrorSurfaces pins that a checkpoint-manifest
// write failure must not fail (or silently pass) the artifact: it
// surfaces as the artifact's checkpoint error and in the printed
// summary.
func TestSweepCheckpointWriteErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	e := experiments.Experiment{ID: "a", Run: func(_ experiments.Options, out io.Writer) error {
		// Make the manifest temp file uncreatable after the artifact is
		// written: Save targets <dir>/manifest.json.tmp, so a directory
		// squatting on that name fails the write step.
		if err := os.Mkdir(filepath.Join(dir, harness.ManifestName+".tmp"), 0o755); err != nil {
			return err
		}
		fmt.Fprintln(out, "artifact a")
		return nil
	}}
	res := runSweep(context.Background(), []experiments.Experiment{e}, SweepRequest{Scale: Test, OutDir: dir})

	if !res.OK() {
		t.Fatalf("sweep not OK despite valid artifact: %+v", res.Artifacts)
	}
	if len(res.Artifacts) != 1 || res.Artifacts[0].ID != "a" || res.Artifacts[0].ckptErr == nil {
		t.Fatalf("artifacts = %+v, want a with a checkpoint error", res.Artifacts)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.txt")); err != nil {
		t.Errorf("artifact missing despite checkpoint-only failure: %v", err)
	}
	var buf strings.Builder
	res.PrintSummary(&buf)
	if !strings.Contains(buf.String(), "1 checkpoint write errors") ||
		!strings.Contains(buf.String(), "checkpoint manifest write failures") {
		t.Errorf("summary does not surface the checkpoint failure:\n%s", buf.String())
	}
}

// TestBlendedETA checks the manifest-seeded / live-duration blend: the
// seed counts as etaSeedWeight virtual artifacts, so live measurements
// take over as a run progresses.
func TestBlendedETA(t *testing.T) {
	cases := []struct {
		name                string
		ran                 int
		ranMS, seedMS, want int64
	}{
		{"no data", 0, 0, 0, 0},
		{"seed only", 0, 0, 500, 500},
		{"live only", 4, 400, 0, 100},
		{"blend weights seed as two tasks", 1, 100, 400, (100 + 800) / 3},
		{"live dominates with many tasks", 18, 1800, 1000, (1800 + 2000) / 20},
	}
	for _, c := range cases {
		if got := blendedAvgMS(c.ran, c.ranMS, c.seedMS); got != c.want {
			t.Errorf("%s: blendedAvgMS(%d, %d, %d) = %d, want %d",
				c.name, c.ran, c.ranMS, c.seedMS, got, c.want)
		}
	}
	// A long-running sweep's estimate must converge toward the live
	// average even when the seed is wildly off.
	if got := blendedAvgMS(100, 100*50, 5000); got > 150 {
		t.Errorf("blend did not converge to live average: %d", got)
	}
}

// TestEtaNoteExportsGauge checks the sweep_eta_ms gauge tracks the
// printed estimate.
func TestEtaNoteExportsGauge(t *testing.T) {
	note := etaNote(2, 2000, nil, 3)
	if note == "" {
		t.Fatal("no ETA with live data")
	}
	if got := obs.Default.Gauge("sweep_eta_ms").Load(); got != 3000 {
		t.Errorf("sweep_eta_ms = %v, want 3000", got)
	}
}
