package sim

import (
	"errors"
	"strings"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/fvc"
	"fvcache/internal/harness"
	"fvcache/internal/memsim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// Parallel fan-out panic isolation is covered by harness.Map's own
// tests (TestMapPanicDoesNotHang); sim no longer carries a second
// parallel-map implementation.

// panicker is a workload that blows up partway through its run.
type panicker struct{}

func (panicker) Name() string        { return "panicker" }
func (panicker) Analogue() string    { return "none" }
func (panicker) Description() string { return "panics mid-run (tests only)" }
func (panicker) FVL() bool           { return false }
func (panicker) Run(env *memsim.Env, _ workload.Scale) {
	a := env.Alloc(4)
	env.Store(a, 1)
	panic("simulated invariant failure")
}

func smallFVCConfig() core.Config {
	return core.Config{
		Main:           cache.Params{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		FVC:            &fvc.Params{Entries: 4, LineBytes: 16, Bits: 3},
		FrequentValues: []uint32{0, 0xffffffff, 1},
	}
}

// TestMeasureRecoversWorkloadPanic: Measure converts a panicking
// workload into an error carrying the recovered stack, instead of
// killing the process.
func TestMeasureRecoversWorkloadPanic(t *testing.T) {
	_, err := Measure(panicker{}, workload.Test, smallFVCConfig())
	if err == nil {
		t.Fatal("Measure returned nil for a panicking workload")
	}
	if !strings.Contains(err.Error(), "simulated invariant failure") {
		t.Errorf("error does not carry the panic value: %v", err)
	}
	if harness.StackOf(err) == nil {
		t.Error("error does not carry the recovered stack")
	}
}

// firstRecording returns the recording of the first registered
// workload at test scale.
func firstRecording(t *testing.T) *trace.Recording {
	t.Helper()
	ws := workload.All()
	if len(ws) == 0 {
		t.Skip("no workloads registered")
	}
	rec, err := Recordings.Get(ws[0], workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestMeasureAuditEvery: a healthy replay passes the periodic and
// final audits; the real workloads exercise the full protocol.
func TestMeasureAuditEvery(t *testing.T) {
	res, err := MeasureRecorded(firstRecording(t), smallFVCConfig(),
		MeasureOptions{AuditEvery: 128, VerifyValues: true})
	if err != nil {
		t.Fatalf("audited measurement failed: %v", err)
	}
	if res.Stats.Accesses() == 0 {
		t.Error("measurement recorded no accesses")
	}
}

// TestMeasureAuditEveryStatsUnchanged: auditing is observation only —
// the measured statistics must be identical with and without it.
func TestMeasureAuditEveryStatsUnchanged(t *testing.T) {
	rec := firstRecording(t)
	plain, err := MeasureRecorded(rec, smallFVCConfig(), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := MeasureRecorded(rec, smallFVCConfig(), MeasureOptions{AuditEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != audited.Stats {
		t.Errorf("auditing changed the stats:\nplain   %+v\naudited %+v", plain.Stats, audited.Stats)
	}
}

// TestMeasureErrorUnwraps: the recovered panic stays reachable through
// the error chain, so callers can errors.As for *harness.PanicError.
func TestMeasureErrorUnwraps(t *testing.T) {
	_, err := Measure(panicker{}, workload.Test, smallFVCConfig())
	var pe *harness.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *harness.PanicError", err)
	}
}
