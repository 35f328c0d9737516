package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fvcache/internal/cache"
	"fvcache/internal/core"
	"fvcache/internal/freqval"
	"fvcache/internal/fvc"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

func wl(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfileTopAccessed(t *testing.T) {
	vals := Profiles.TopAccessed(wl(t, "goboard"), workload.Test, 7)
	if len(vals) != 7 {
		t.Fatalf("got %d values, want 7", len(vals))
	}
	// The go-board workload's most accessed values must include the
	// board cell constants.
	found := map[uint32]bool{}
	for _, v := range vals {
		found[v] = true
	}
	for _, want := range []uint32{0, 1, 2} {
		if !found[want] {
			t.Errorf("top values %v missing %d", vals, want)
		}
	}
}

// TestProfileFromValueColumn: for every workload, the profile counted
// from the access value column equals the top values of a histogram
// fed by replaying every event through the Sink interface, which
// skips non-access events itself. Some workloads must carry
// non-access events, or the filter goes untested.
func TestProfileFromValueColumn(t *testing.T) {
	mixed := 0
	for _, w := range workload.All() {
		rec, err := Recordings.Get(w, workload.Test)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(rec.Len()) != rec.Accesses() {
			mixed++
		}
		h := trace.NewValueHistogram()
		rec.Replay(h)
		want := freqval.TopAccessed(h, profileTop)
		if got := profileTopAccessed(w, workload.Test, profileTop); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: column-counted top %d = %v, replayed = %v", w.Name(), profileTop, got, want)
		}
	}
	if mixed == 0 {
		t.Error("no workload records a non-access event")
	}
}

// TestRecordExactColumns: a finished recording keeps no spare column
// capacity, since every recording lives as long as the process.
func TestRecordExactColumns(t *testing.T) {
	for _, name := range []string{"lzcomp", "ccomp", "objdb"} {
		rec, err := Record(wl(t, name), workload.Test)
		if err != nil {
			t.Fatal(err)
		}
		ops, addrs, vals := rec.Columns()
		if n := rec.Len(); cap(ops) != n || cap(addrs) != n || cap(vals) != n {
			t.Errorf("%s: %d events, column caps %d/%d/%d", name, n, cap(ops), cap(addrs), cap(vals))
		}
	}
}

func TestMeasurePlainVsFVC(t *testing.T) {
	w := wl(t, "goboard")
	main := cache.Params{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1}
	base, err := Measure(w, workload.Test, core.Config{Main: main})
	if err != nil {
		t.Fatal(err)
	}
	vals := Profiles.TopAccessed(w, workload.Test, 7)
	aug, err := Measure(w, workload.Test, core.Config{
		Main:           main,
		FVC:            &fvc.Params{Entries: 128, LineBytes: 32, Bits: 3},
		FrequentValues: vals,
		VerifyValues:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Accesses() != aug.Accesses() {
		t.Fatalf("access counts differ: %d vs %d", base.Accesses(), aug.Accesses())
	}
	if aug.Misses >= base.Misses {
		t.Errorf("FVC should reduce misses on goboard: base=%d fvc=%d",
			base.Misses, aug.Misses)
	}
	if aug.FVCHits == 0 {
		t.Error("expected FVC hits")
	}
}

func TestMeasureSampling(t *testing.T) {
	w := wl(t, "goboard")
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureRecorded(rec, core.Config{
		Main:           cache.Params{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1},
		FVC:            &fvc.Params{Entries: 128, LineBytes: 32, Bits: 3},
		FrequentValues: Profiles.TopAccessed(w, workload.Test, 7),
	}, MeasureOptions{SampleEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.FVCFreqFrac <= 0 || res.FVCFreqFrac > 1 {
		t.Errorf("FVCFreqFrac = %v, want in (0,1]", res.FVCFreqFrac)
	}
	if res.FVCOccupancy <= 0 || res.FVCOccupancy > 1 {
		t.Errorf("FVCOccupancy = %v, want in (0,1]", res.FVCOccupancy)
	}
}

func TestMeasureBadConfig(t *testing.T) {
	_, err := Measure(wl(t, "goboard"), workload.Test, core.Config{})
	if err == nil {
		t.Error("zero config must error")
	}
}

func TestMissAttribution(t *testing.T) {
	w := wl(t, "goboard")
	cfg := core.Config{Main: cache.Params{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1}}
	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	total, attrs, err := MissAttributionSets(rec, cfg, [][]uint32{Profiles.TopAccessed(w, workload.Test, 10)})
	if err != nil {
		t.Fatal(err)
	}
	attr := attrs[0]
	if total == 0 {
		t.Fatal("expected misses")
	}
	if attr == 0 || attr > total {
		t.Errorf("attributed = %d of %d", attr, total)
	}
	// On an FVL workload, a large share of misses involve top values.
	if frac := float64(attr) / float64(total); frac < 0.25 {
		t.Errorf("attribution fraction = %.2f, expected >= 0.25 on goboard", frac)
	}
}

// TestMeasureCtxCancelled: every replayed measurement entry point must
// refuse a context that is already cancelled, and an uncancelled
// context must not perturb results (a cancellable replay only cuts the
// same bulk replay loop at the context-check cadence).
func TestMeasureCtxCancelled(t *testing.T) {
	w := wl(t, "goboard")
	cfg := core.Config{Main: cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	rec, err := Recordings.Get(w, workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureRecorded(rec, cfg, MeasureOptions{Ctx: cancelled}); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureRecorded with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := MeasureRecordedBatch(rec, []core.Config{cfg}, MeasureOptions{Ctx: cancelled}); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureRecordedBatch with cancelled ctx: err = %v, want context.Canceled", err)
	}

	// A live context must leave results bit-identical to the ctx-free
	// paths, for both the per-config and the fused engine.
	want, err := MeasureRecorded(rec, cfg, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureRecorded(rec, cfg, MeasureOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ctx-chunked replay diverged: %+v != %+v", got, want)
	}
	batch, err := MeasureRecordedBatch(rec, []core.Config{cfg}, MeasureOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != want {
		t.Errorf("ctx-chunked batch replay diverged: %+v != %+v", batch[0], want)
	}
}

// countingCtx reports cancellation from its n-th Err call on, so a
// test can stop a replay at a chosen context check.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestReplayCancelCadence pins how often a cancellable replay checks
// its context: once at entry and once per cancelCheckEvery accesses,
// so a deadline lands within that many accesses of expiring.
func TestReplayCancelCadence(t *testing.T) {
	rec, err := Recordings.Get(wl(t, "goboard"), workload.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Main: cache.Params{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1}}
	checks := int((rec.Accesses() + cancelCheckEvery - 1) / cancelCheckEvery)
	if checks < 3 {
		t.Fatalf("recording has %d accesses, too few to cross two check boundaries", rec.Accesses())
	}
	ctx := &countingCtx{Context: context.Background()}
	if _, err := MeasureRecorded(rec, cfg, MeasureOptions{Ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	if want := 1 + checks; ctx.calls != want {
		t.Errorf("uncancelled replay checked ctx %d times, want %d", ctx.calls, want)
	}
	// Cancel at the third check: the entry check and the check before
	// the first span pass, the check before the second span aborts.
	ctx = &countingCtx{Context: context.Background(), cancelAt: 3}
	if _, err := MeasureRecorded(rec, cfg, MeasureOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("replay cancelled mid-stream: err = %v, want context.Canceled", err)
	}
	if ctx.calls != 3 {
		t.Errorf("replay checked ctx %d times after cancellation, want it to stop at 3", ctx.calls)
	}
}
