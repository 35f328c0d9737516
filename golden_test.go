package fvcache_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"fvcache"
)

// engineGolden is the committed testdata/engine_golden.json: the
// digest of the engine's output over every workload at test scale, and
// the EngineVersion that produced it.
type engineGolden struct {
	EngineVersion string `json:"engine_version"`
	Digest        string `json:"digest"`
}

// goldenConfigs is the digest's configuration fan: a plain
// direct-mapped cache, the same cache with an FVC, a victim cache, a
// 2-way main cache and an L2.
func goldenConfigs(t *testing.T, workload string) []fvcache.Config {
	main := fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	fvt, err := fvcache.Profile(context.Background(), fvcache.ProfileRequest{Workload: workload, Scale: fvcache.Test, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	return []fvcache.Config{
		{Main: main},
		{Main: main, FVC: &fvcache.FVCParams{Entries: 256, LineBytes: main.LineBytes, Bits: 3}, FrequentValues: fvt},
		{Main: main, VictimEntries: 8},
		{Main: fvcache.CacheParams{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}},
		{Main: main, L2: &fvcache.CacheParams{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4}},
	}
}

// engineDigest hashes the full MeasureResult of every golden config
// over every workload at test scale, in two lanes: one fused batch with
// default options, and one single-config Measure per config with
// warmup, FVC sampling and audits armed.
func engineDigest(t *testing.T) string {
	ctx := context.Background()
	hooks := fvcache.Options{WarmupAccesses: 10_000, SampleEvery: 5_000, AuditEvery: 50_000}
	h := sha256.New()
	emit := func(workload, lane string, i int, r fvcache.MeasureResult) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s %d %s\n", workload, lane, i, b)
	}
	for _, info := range fvcache.Workloads() {
		cfgs := goldenConfigs(t, info.Name)
		batch, err := fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{
			Workload: info.Name, Scale: fvcache.Test, Configs: cfgs,
		})
		if err != nil {
			t.Fatalf("%s batch: %v", info.Name, err)
		}
		for i, r := range batch {
			emit(info.Name, "batch", i, r)
		}
		for i, cfg := range cfgs {
			r, err := fvcache.Measure(ctx, fvcache.MeasureRequest{
				Workload: info.Name, Scale: fvcache.Test, Config: cfg, Options: hooks,
			})
			if err != nil {
				t.Fatalf("%s hooked config %d: %v", info.Name, i, err)
			}
			emit(info.Name, "hooked", i, r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGolden ties EngineVersion to the engine's actual output.
// Durable result caches and fleet peers key on EngineVersion, so an
// engine change that moves any measured number must bump it; this test
// fails when the digest moves while the version does not. After a
// deliberate bump, write the new version and the digest this test
// reports into testdata/engine_golden.json.
func TestEngineGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/engine_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want engineGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(fvcache.Workloads()) != 18 {
		t.Fatalf("golden digest covers 18 workloads, registry has %d", len(fvcache.Workloads()))
	}
	got := engineDigest(t)
	switch {
	case want.EngineVersion != fvcache.EngineVersion:
		t.Fatalf("EngineVersion is %q but the golden file pins %q: record the new version with digest %s",
			fvcache.EngineVersion, want.EngineVersion, got)
	case got != want.Digest:
		t.Fatalf("engine output changed without an EngineVersion bump (still %q):\ngot digest  %s\nwant digest %s",
			fvcache.EngineVersion, got, want.Digest)
	}
}
