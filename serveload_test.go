// End-to-end smoke test for the serving benchmark: build fvcached and
// serveload, run a short seeded load against a spawned server, and
// check the emitted BENCH_serve.json passes serveload -verify — the
// same gate make check applies to the committed artifact.
package fvcache_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fvcache/internal/obs"
)

func TestServeLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	if runtime.GOOS == "windows" {
		t.Skip("drains via SIGTERM")
	}
	dir := t.TempDir()
	fvcached := filepath.Join(dir, "fvcached")
	serveload := filepath.Join(dir, "serveload")
	for bin, pkg := range map[string]string{fvcached: "./cmd/fvcached", serveload: "./cmd/serveload"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	artifact := filepath.Join(dir, "BENCH_serve.json")
	run := exec.Command(serveload,
		"-fvcached", fvcached, "-o", artifact,
		"-warmup", "400ms", "-closed", "600ms",
		"-open", "600ms", "-rate", "60",
		"-burst-rounds", "3", "-burst", "12",
		"-deadline-phase", "300ms")
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("serveload: %v\n%s", err, out)
	}

	// The artifact must satisfy its own validator.
	if out, err := exec.Command(serveload, "-verify", artifact).CombinedOutput(); err != nil {
		t.Fatalf("serveload -verify: %v\n%s", err, out)
	}

	// The SIGTERM drain exports the serving-path telemetry next to the
	// artifact: exact-quantile latency histograms and the span trees
	// from the flight recorder.
	tbuf, err := os.ReadFile(filepath.Join(dir, "telemetry_serve.json"))
	if err != nil {
		t.Fatalf("spawned fvcached exported no telemetry: %v", err)
	}
	snap, err := obs.ValidateSnapshot(tbuf)
	if err != nil {
		t.Fatalf("exported snapshot invalid: %v", err)
	}
	// Every histogram is registered at init, so look for observations
	// in the serving-path latency series rather than mere presence.
	var latencyN uint64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "serve_latency_us{") {
			latencyN += h.Count
		}
	}
	if latencyN == 0 {
		t.Error("snapshot carries no serve_latency_us observations")
	}
	if len(snap.Requests) == 0 {
		t.Error("snapshot carries no request traces")
	}

	// Spot-check the artifact's load shape: a warmed fingerprint-reusing
	// mix must hit the cache, and the burst phase must coalesce.
	abuf, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		HitRatio      float64 `json:"hit_ratio"`
		CoalesceRatio float64 `json:"coalesce_ratio"`
	}
	if err := json.Unmarshal(abuf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HitRatio == 0 {
		t.Error("hit_ratio is 0 after warmup")
	}
	if rep.CoalesceRatio == 0 {
		t.Error("coalesce_ratio is 0 despite burst phase")
	}
}
