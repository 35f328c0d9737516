package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent: 90..100 counts
		{Name: "a1", Parent: 1, Start: 12, End: 18},
		{Name: "lone", Parent: -1, Start: 5, End: 9},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	if tr.newTrace() != 0 || tr.begin("x", "", 0, -1) != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
	ran := false
	if d := tr.time("x", "", 0, -1, func() { ran = true }); !ran || d < 0 {
		t.Fatal("nil tracer did not run the timed call")
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	id := tr.newTrace()
	p := tr.begin("parent", "", id, -1)
	tr.time("child", "", id, p, func() { time.Sleep(time.Millisecond) })
	tr.end(p)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans); self[0] >= spans[0].dur() {
		t.Errorf("parent self time %v not reduced by its child", self[0])
	}
	if got := sumBy(spans, "child")[id]; got != spans[1].dur() {
		t.Errorf("sumBy = %v", got)
	}
}
