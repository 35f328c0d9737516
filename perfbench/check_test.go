package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"fvcache"
)

func TestCheckPassFlagsACorruptedDigest(t *testing.T) {
	res, err := fvcache.Sweep(context.Background(), fvcache.SweepRequest{
		Artifacts: []string{"fig10"}, Scale: fvcache.Test, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.Artifacts[0].Output))
	good := map[string]string{"fig10": hex.EncodeToString(sum[:])}
	if bad := checkPass(res, nil, good); len(bad) != 0 {
		t.Fatalf("true digest rejected: %v", bad)
	}
	sum[0] ^= 1
	corrupted := map[string]string{"fig10": hex.EncodeToString(sum[:])}
	if bad := checkPass(res, nil, corrupted); len(bad) != 1 {
		t.Fatalf("corrupted digest: %v", bad)
	}
	if bad := checkPass(res, nil, map[string]string{"fig10": good["fig10"], "fig4": good["fig10"]}); len(bad) != 1 {
		t.Fatalf("an expected artifact the pass did not run went unnoticed: %v", bad)
	}
}

func TestFigureDigestsCoverEveryArtifact(t *testing.T) {
	f, err := newFigures(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range figureArtifacts {
		if len(f.digests[id]) != 64 {
			t.Errorf("%s: digest %q", id, f.digests[id])
		}
	}
	if len(f.digests) != len(figureArtifacts) {
		t.Errorf("%d digests for %d artifacts", len(f.digests), len(figureArtifacts))
	}
}

// smallHot is serve_hot over every warmed key but only a few timed
// requests.
func smallHot(corrupt func(*reply)) *serving {
	s := newServeHot(3, 1)
	s.ops = s.ops[:24]
	s.checked = s.checked[:24]
	s.corrupt = corrupt
	return s
}

func TestServeHotRunIsCorrect(t *testing.T) {
	res, err := measure(smallHot(nil), false, "..", t.TempDir()+"/spans.jsonl", "serve_hot", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 24 {
		t.Fatalf("result %+v", res)
	}
}

func TestCorruptedExpectedValueFailsTheRun(t *testing.T) {
	corrupt := func(w *reply) {
		if w.measure != nil {
			w.measure.Results[0].Stats.Misses++
		} else {
			w.points[0].Misses++
		}
	}
	res, err := measure(smallHot(corrupt), false, "..", t.TempDir()+"/spans.jsonl", "serve_hot", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted expectations: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestTracedRunPrintsEveryLayerMetric runs the small serve_hot traced
// and checks the per-layer metric set and the span file.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	path := t.TempDir() + "/spans.jsonl"
	res, err := measure(smallHot(nil), true, "..", path, "serve_hot", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("missing %s", d.name)
		}
	}
	if hr := res.Metrics["resultcache.hit_ratio"].Value; hr != 1 {
		t.Errorf("serve_hot hit ratio %v, want 1", hr)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the runs print in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %v, code %v", i, c.got[i], d)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newBench(w.Name, 1, 20); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
