// Cross-module integration tests: trace round trips feeding the
// simulator, the full profile→measure pipeline over every workload
// with value verification enabled, and determinism of the experiment
// machinery.
package fvcache_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/experiments"
	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// TestTraceReplayMatchesDirectDrive records a workload's trace to a
// file, replays it through a hierarchy, and requires bit-identical
// statistics to driving the hierarchy live.
func TestTraceReplayMatchesDirectDrive(t *testing.T) {
	w, err := workload.Get("lispint")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Main:           cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1},
		FVC:            &fvc.Params{Entries: 128, LineBytes: 32, Bits: 3},
		FrequentValues: sim.Profiles.TopAccessed(w, workload.Test, 7),
	}

	// Live drive.
	live := core.MustNew(cfg)
	envLive := memsim.NewEnv(live)
	w.Run(envLive, workload.Test)

	// Record to a file.
	path := filepath.Join(t.TempDir(), "trace.fvt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	envRec := memsim.NewEnv(tw)
	w.Run(envRec, workload.Test)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay from the file.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tr, err := trace.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := core.MustNew(cfg)
	if _, err := tr.Drain(replayed); err != nil {
		t.Fatal(err)
	}

	if live.Stats() != replayed.Stats() {
		t.Errorf("replayed stats differ from live drive:\nlive:     %+v\nreplayed: %+v",
			live.Stats(), replayed.Stats())
	}
}

// TestAllWorkloadsThroughVerifiedFVC drives every workload through a
// profiled DMC+FVC hierarchy with VerifyValues on: any divergence
// between FVC codes and architectural memory panics.
func TestAllWorkloadsThroughVerifiedFVC(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			vals := sim.Profiles.TopAccessed(w, workload.Test, 7)
			st, err := sim.Measure(w, workload.Test, core.Config{
				Main:           cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
				FVC:            &fvc.Params{Entries: 256, LineBytes: 32, Bits: 3},
				FrequentValues: vals,
				VerifyValues:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Hits()+st.Misses != st.Accesses() {
				t.Errorf("stats inconsistent: %+v", st)
			}
			if st.Accesses() == 0 {
				t.Error("no accesses simulated")
			}
		})
	}
}

// TestAllWorkloadsVictimCache drives every workload through a DMC+VC
// hierarchy, exercising the swap path broadly.
func TestAllWorkloadsVictimCache(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			st, err := sim.Measure(w, workload.Test, core.Config{
				Main:          cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1},
				VictimEntries: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Hits()+st.Misses != st.Accesses() {
				t.Errorf("stats inconsistent: %+v", st)
			}
		})
	}
}

// TestFVCNeverWorseAcrossSuite is the paper's first design goal as an
// integration property: with write-miss allocation disabled, adding an
// FVC never increases the miss count, for any workload.
func TestFVCNeverWorseAcrossSuite(t *testing.T) {
	main := cache.Params{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	for _, w := range workload.FVLSuite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			base, err := sim.Measure(w, workload.Test, core.Config{Main: main})
			if err != nil {
				t.Fatal(err)
			}
			aug, err := sim.Measure(w, workload.Test, core.Config{
				Main:                main,
				FVC:                 &fvc.Params{Entries: 256, LineBytes: 32, Bits: 3},
				FrequentValues:      sim.Profiles.TopAccessed(w, workload.Test, 7),
				NoWriteMissAllocate: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if aug.Misses > base.Misses {
				t.Errorf("FVC increased misses: %d > %d", aug.Misses, base.Misses)
			}
		})
	}
}

// TestExperimentDeterminism runs one full experiment twice and
// requires identical rendered output.
func TestExperimentDeterminism(t *testing.T) {
	e, err := experiments.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Scale: workload.Test, Workers: 2}
	var a, b bytes.Buffer
	if err := e.Run(opt, &a); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(opt, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("experiment output is not deterministic")
	}
	if !strings.Contains(a.String(), "Figure 4") {
		t.Errorf("unexpected output:\n%s", a.String())
	}
}

// TestScaledMissRatesOrdering checks the macro property the evaluation
// depends on: for every workload, bigger caches never have (meaningfully)
// higher miss rates.
func TestScaledMissRatesOrdering(t *testing.T) {
	for _, w := range workload.FVLSuite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			var prev float64 = 2.0 // above any possible rate
			for _, kb := range []int{4, 16, 64} {
				st, err := sim.Measure(w, workload.Test, core.Config{
					Main: cache.Params{SizeBytes: kb << 10, LineBytes: 32, Assoc: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				rate := st.MissRate()
				// Allow tiny non-monotonicity (set-index effects).
				if rate > prev*1.05+0.001 {
					t.Errorf("%dKB miss rate %.4f exceeds smaller cache's %.4f", kb, rate, prev)
				}
				prev = rate
			}
		})
	}
}
