package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := LoadManifest(dir, "k=1")
	if len(m.Done) != 0 {
		t.Fatalf("fresh manifest has %d entries", len(m.Done))
	}
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.MarkDone("a", "a.txt", 250*time.Millisecond)
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}

	got := LoadManifest(dir, "k=1")
	if !got.IsDone(dir, "a") {
		t.Error("round-tripped manifest lost entry a")
	}
	e := got.Done["a"]
	if e.Output != "a.txt" || e.DurationMS != 250 {
		t.Errorf("entry a = %+v, want output a.txt duration 250ms", e)
	}
	if e.CompletedAt.IsZero() {
		t.Error("entry a has zero completion time")
	}
}

func TestManifestInvalidation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	save := func() {
		m := LoadManifest(dir, "k=1")
		m.MarkDone("a", "a.txt", time.Millisecond)
		if err := m.Save(dir); err != nil {
			t.Fatal(err)
		}
	}

	save()
	if !LoadManifest(dir, "k=1").IsDone(dir, "a") {
		t.Fatal("setup: entry not visible")
	}

	// A key change discards the checkpoint wholesale.
	if LoadManifest(dir, "k=2").IsDone(dir, "a") {
		t.Error("key mismatch did not invalidate the checkpoint")
	}

	// A corrupt manifest degrades to a fresh one, never an error.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if LoadManifest(dir, "k=1").IsDone(dir, "a") {
		t.Error("corrupt manifest still reports entry done")
	}

	// A deleted output invalidates just its entry.
	save()
	if err := os.Remove(filepath.Join(dir, "a.txt")); err != nil {
		t.Fatal(err)
	}
	if LoadManifest(dir, "k=1").IsDone(dir, "a") {
		t.Error("entry with deleted output still reports done")
	}
}

func TestManifestAvgDurationMS(t *testing.T) {
	m := &Manifest{Done: map[string]ManifestEntry{}}
	if got := m.AvgDurationMS(); got != 0 {
		t.Errorf("empty manifest avg = %d, want 0", got)
	}
	m.Done["a"] = ManifestEntry{DurationMS: 100}
	m.Done["b"] = ManifestEntry{DurationMS: 300}
	if got := m.AvgDurationMS(); got != 200 {
		t.Errorf("avg = %d, want 200", got)
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
