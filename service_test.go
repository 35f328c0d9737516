// End-to-end smoke test for the fvcached binary: boot the service,
// issue a measurement over HTTP, scrape /debug/metrics, drain it with
// SIGTERM, and validate the telemetry snapshot it exports. This is the
// make check gate for the service pipeline (the in-process coalescing
// and backpressure tests live in internal/serve).
package fvcache_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"fvcache/internal/obs"
)

func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("drains via SIGTERM")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fvcached")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fvcached").CombinedOutput(); err != nil {
		t.Fatalf("building fvcached: %v\n%s", err, out)
	}

	telPath := filepath.Join(dir, "telemetry.json")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-telemetry-out", telPath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("startup line %q carries no address", line)
	}
	base := "http://" + strings.TrimSpace(line[i+len(marker):])
	drained := make(chan bool, 1)
	go func() {
		saw := false
		for sc.Scan() {
			if strings.Contains(sc.Text(), "drained") {
				saw = true
			}
		}
		drained <- saw
	}()

	// One measurement round trip.
	resp, err := http.Post(base+"/v1/measure", "application/json",
		strings.NewReader(`{"workload":"goboard","config":{"main_bytes":8192,"fvc_entries":256}}`))
	if err != nil {
		t.Fatalf("measure request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Accesses uint64  `json:"accesses"`
			MissRate float64 `json:"miss_rate"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("measure response: %v\n%s", err, body)
	}
	if len(out.Results) != 1 || out.Results[0].Accesses == 0 {
		t.Fatalf("empty measurement: %s", body)
	}

	// The metrics page must export the service counters.
	resp, err = http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"serve_requests_total", "serve_batches_total", "replay_events_total"} {
		if !strings.Contains(string(page), metric) {
			t.Errorf("metrics page missing %s", metric)
		}
	}

	// The flight recorder must have the measurement's trace.
	resp, err = http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Count  int `json:"count"`
		Traces []struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
		} `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/requests: %v", err)
	}
	if flight.Count == 0 {
		t.Error("/debug/requests recorded no traces")
	}

	// Graceful drain: SIGTERM must exit 0 after completing the drain.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("fvcached exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fvcached did not exit after SIGTERM")
	}
	if !<-drained {
		t.Error("drain epilogue line missing from stdout")
	}

	// The exported telemetry snapshot must validate and carry the
	// request counters the run produced.
	buf, err := os.ReadFile(telPath)
	if err != nil {
		t.Fatalf("service did not export telemetry: %v", err)
	}
	snap, err := obs.ValidateSnapshot(buf)
	if err != nil {
		t.Fatalf("exported snapshot invalid: %v", err)
	}
	for _, c := range []string{"serve_requests_total", "serve_batches_total"} {
		if snap.Counters[c] == 0 {
			t.Errorf("%s is 0 in exported snapshot; counters: %v", c, snap.Counters)
		}
	}
	// The serving-path observability additions ride the same drain:
	// exact-quantile latency histograms and the flight recorder's
	// request span trees.
	foundLatency := false
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "serve_latency_us{") {
			foundLatency = true
		}
	}
	if !foundLatency {
		t.Errorf("snapshot carries no serve_latency_us histograms: %v", len(snap.Histograms))
	}
	if len(snap.Requests) == 0 {
		t.Error("snapshot carries no request traces from the flight recorder")
	}
	found := false
	for _, ph := range snap.Phases.Children {
		if strings.HasPrefix(ph.Name, "serve:") {
			found = true
		}
	}
	if !found {
		var names []string
		for _, ph := range snap.Phases.Children {
			names = append(names, ph.Name)
		}
		t.Errorf("phase tree carries no serve span: %v", names)
	}
}
