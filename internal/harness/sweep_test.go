package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fvcache/internal/obs"
)

// sweepTasks builds three tasks; the one named failID panics.
func sweepTasks(failID string, ran *[]string) []Task {
	mk := func(id string) Task {
		return Task{ID: id, Title: "artifact " + id, Run: func(_ context.Context, out io.Writer) error {
			*ran = append(*ran, id)
			if id == failID {
				panic("injected failure in " + id)
			}
			fmt.Fprintf(out, "content of %s\n", id)
			return nil
		}}
	}
	return []Task{mk("fig1"), mk("fig2"), mk("tab1")}
}

// TestSweepGracefulDegradation is the acceptance scenario: one
// artificially failing experiment, all other artifacts complete, the
// summary names the failure with its recovered stack, and a rerun with
// the same -out directory skips completed artifacts via the manifest.
func TestSweepGracefulDegradation(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	opt := SweepOptions{OutDir: dir, Key: "scale=test", Resume: true, Log: io.Discard}

	sum := RunSweep(context.Background(), sweepTasks("fig2", &ran), opt)
	if sum.OK() {
		t.Fatal("sweep with a failing task must not be OK")
	}
	if got := sum.Count(TaskDone); got != 2 {
		t.Errorf("done = %d, want 2 (siblings of the failure must complete)", got)
	}
	failed := sum.Failed()
	if len(failed) != 1 || failed[0].ID != "fig2" {
		t.Fatalf("failed = %+v, want exactly fig2", failed)
	}
	var sb strings.Builder
	sum.Print(&sb)
	out := sb.String()
	for _, want := range []string{"fig2", "injected failure in fig2", "1 failed", "sweep_test.go"} {
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
		t.Error("failed task must not produce a final artifact file")
	}

	// Rerun: checkpointed artifacts are skipped, only the failure reruns.
	ran = nil
	sum2 := RunSweep(context.Background(), sweepTasks("", &ran), opt)
	if !sum2.OK() {
		t.Fatalf("rerun failed: %+v", sum2.Failed())
	}
	if got := sum2.Count(TaskSkipped); got != 2 {
		t.Errorf("rerun skipped %d, want 2", got)
	}
	if len(ran) != 1 || ran[0] != "fig2" {
		t.Errorf("rerun executed %v, want only fig2", ran)
	}
}

func TestSweepKeyChangeInvalidatesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	RunSweep(context.Background(), sweepTasks("", &ran),
		SweepOptions{OutDir: dir, Key: "scale=test", Resume: true, Log: io.Discard})
	ran = nil
	sum := RunSweep(context.Background(), sweepTasks("", &ran),
		SweepOptions{OutDir: dir, Key: "scale=ref", Resume: true, Log: io.Discard})
	if got := sum.Count(TaskSkipped); got != 0 {
		t.Errorf("key change skipped %d tasks, want 0", got)
	}
	if len(ran) != 3 {
		t.Errorf("key change reran %d tasks, want 3", len(ran))
	}
}

func TestSweepDeletedOutputInvalidatesEntry(t *testing.T) {
	dir := t.TempDir()
	var ran []string
	opt := SweepOptions{OutDir: dir, Key: "k", Resume: true, Log: io.Discard}
	RunSweep(context.Background(), sweepTasks("", &ran), opt)
	if err := os.Remove(filepath.Join(dir, "fig1.txt")); err != nil {
		t.Fatal(err)
	}
	ran = nil
	RunSweep(context.Background(), sweepTasks("", &ran), opt)
	if len(ran) != 1 || ran[0] != "fig1" {
		t.Errorf("after deleting fig1.txt, rerun executed %v, want only fig1", ran)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []string
	tasks := sweepTasks("", &ran)
	// Cancel from inside the first task: the rest must be marked
	// canceled, still appearing in the summary.
	orig := tasks[0].Run
	tasks[0].Run = func(c context.Context, w io.Writer) error {
		cancel()
		return orig(c, w)
	}
	sum := RunSweep(ctx, tasks, SweepOptions{Stdout: io.Discard, Log: io.Discard})
	if got := sum.Count(TaskCanceled); got != 2 {
		t.Errorf("canceled = %d, want 2", got)
	}
	if sum.OK() {
		t.Error("cancelled sweep must not be OK")
	}
	if len(sum.Results) != 3 {
		t.Errorf("summary must cover all tasks, got %d", len(sum.Results))
	}
}

func TestSweepNoOutDirWritesStdout(t *testing.T) {
	var sb strings.Builder
	var ran []string
	sum := RunSweep(context.Background(), sweepTasks("", &ran),
		SweepOptions{Stdout: &sb, Log: io.Discard})
	if !sum.OK() {
		t.Fatalf("sweep failed: %+v", sum.Failed())
	}
	for _, id := range []string{"fig1", "fig2", "tab1"} {
		if !strings.Contains(sb.String(), "content of "+id) {
			t.Errorf("stdout missing output of %s", id)
		}
	}
}

func TestManifestCorruptFileDegradesToFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := LoadManifest(dir, "k")
	if len(m.Done) != 0 || m.Key != "k" {
		t.Errorf("corrupt manifest must load fresh, got %+v", m)
	}
}

// TestBlendedETA checks the manifest-seeded / live-duration blend: the
// seed counts as etaSeedWeight virtual tasks, so live measurements take
// over as a run progresses.
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
