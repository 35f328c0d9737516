package sim

import (
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/workload"
)

func TestWarmupExcludesColdMisses(t *testing.T) {
	w := wl(t, "goboard")
	cfg := core.Config{Main: cache.Params{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1}}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureRecorded(rec, cfg, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := MeasureRecorded(rec, cfg, MeasureOptions{WarmupAccesses: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if warmed.Stats.Accesses() != full.Stats.Accesses()-50_000 {
		t.Errorf("warmed accesses = %d, want %d",
			warmed.Stats.Accesses(), full.Stats.Accesses()-50_000)
	}
	if warmed.Stats.Misses >= full.Stats.Misses {
		t.Errorf("warmup must exclude some misses: %d >= %d",
			warmed.Stats.Misses, full.Stats.Misses)
	}
	// Warm-cache miss rate should not exceed the whole-run rate by
	// much (it excludes the cold start).
	if warmed.Stats.MissRate() > full.Stats.MissRate()*1.05 {
		t.Errorf("warmed miss rate %.4f above full %.4f",
			warmed.Stats.MissRate(), full.Stats.MissRate())
	}
}

func TestWarmupZeroIsWholeRun(t *testing.T) {
	w := wl(t, "lispint")
	cfg := core.Config{Main: cache.Params{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1}}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MeasureRecorded(rec, cfg, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureRecorded(rec, cfg, MeasureOptions{WarmupAccesses: 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Error("WarmupAccesses=0 must equal the default")
	}
}

func TestStatsMinus(t *testing.T) {
	a := core.Stats{Loads: 10, Stores: 5, Misses: 3, TrafficWords: 100}
	b := core.Stats{Loads: 4, Stores: 2, Misses: 1, TrafficWords: 40}
	d := a.Minus(b)
	if d.Loads != 6 || d.Stores != 3 || d.Misses != 2 || d.TrafficWords != 60 {
		t.Errorf("Minus = %+v", d)
	}
	if d2 := a.Minus(core.Stats{}); d2 != a {
		t.Error("Minus zero must be identity")
	}
}
