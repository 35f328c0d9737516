package fvcache_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fvcache"
	"fvcache/internal/obs"
)

// sweepOutputs sweeps ids at test scale and returns each artifact's
// text by id.
func sweepOutputs(t *testing.T, workers int, ids ...string) map[string]string {
	t.Helper()
	res, err := fvcache.Sweep(context.Background(), fvcache.SweepRequest{
		Artifacts: ids,
		Scale:     fvcache.Test,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, a := range res.Artifacts {
		if a.Status != "done" {
			t.Fatalf("%s %s: %s", a.ID, a.Status, a.Err)
		}
		out[a.ID] = a.Output
	}
	return out
}

// TestFiguresMatchBenchDigests holds the Section 4 figure text to the
// digests the end-to-end benchmark checks every pass against, so a
// change of figure text fails here without running the benchmark.
func TestFiguresMatchBenchDigests(t *testing.T) {
	raw, err := os.ReadFile("perfbench/expected/figures.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig4", "fig10", "fig12", "fig13", "fig14", "fig15"}
	if len(want) != len(ids) {
		t.Fatalf("figures.json has %d digests, want %d", len(want), len(ids))
	}
	for id, text := range sweepOutputs(t, 1, ids...) {
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s: digest %s, want %s", id, got, want[id])
		}
	}
}

// TestSweepOrderIndependent checks that sharing cells between the
// figures of one sweep changes no figure: any order, and each figure
// swept alone, give the same text.
func TestSweepOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	ids := []string{"fig13", "fig12", "fig15", "fig10", "fig14"}
	fwd := sweepOutputs(t, 2, ids...)
	rev := slices.Clone(ids)
	slices.Reverse(rev)
	back := sweepOutputs(t, 2, rev...)
	for _, id := range ids {
		alone := sweepOutputs(t, 2, id)[id]
		if fwd[id] != alone || back[id] != alone {
			t.Errorf("%s: text depends on sweep order (forward equal %v, reverse equal %v)",
				id, fwd[id] == alone, back[id] == alone)
		}
	}
}

// TestCellCacheScopedToSweep checks that a sweep's cell cache dies
// with the call: a second identical sweep replays and analyzes as
// much as the first.
func TestCellCacheScopedToSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	work := func() (replayed, mrcPasses uint64) {
		r0, m0 := obs.ReplayEvents.Load(), obs.MRCPasses.Load()
		sweepOutputs(t, 2, "fig12", "fig13")
		return obs.ReplayEvents.Load() - r0, obs.MRCPasses.Load() - m0
	}
	r1, m1 := work()
	r2, m2 := work()
	if r1 == 0 || m1 == 0 {
		t.Fatalf("first sweep replayed %d events in %d MRC passes", r1, m1)
	}
	if r1 != r2 || m1 != m2 {
		t.Errorf("second sweep replayed %d events in %d MRC passes, first %d in %d", r2, m2, r1, m1)
	}
}

// TestSweepCheckpointKeyHasEngineVersion checks that an output
// directory's checkpoint is keyed on the engine version, so after an
// engine change a resumed sweep redoes the artifacts the old engine
// wrote instead of keeping them.
func TestSweepCheckpointKeyHasEngineVersion(t *testing.T) {
	dir := t.TempDir()
	res, err := fvcache.Sweep(context.Background(), fvcache.SweepRequest{
		Artifacts: []string{"tab1"},
		Scale:     fvcache.Test,
		OutDir:    dir,
	})
	if err != nil || !res.OK() {
		t.Fatalf("sweep: %v %+v", err, res)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Key, fvcache.EngineVersion) {
		t.Errorf("checkpoint key %q does not name engine %q", m.Key, fvcache.EngineVersion)
	}
}
