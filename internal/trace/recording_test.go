package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Op: StackAlloc, Addr: 0x7fff_e000, Value: 64},
		{Op: Store, Addr: 0x7fff_e000, Value: 42},
		{Op: Load, Addr: 0x7fff_e000, Value: 42},
		{Op: HeapAlloc, Addr: 0x1000_0000, Value: 32},
		{Op: Store, Addr: 0x1000_0004, Value: 0xffff_ffff},
		{Op: Load, Addr: 0x1000_0004, Value: 0xffff_ffff},
		{Op: HeapFree, Addr: 0x1000_0000, Value: 32},
		{Op: StackFree, Addr: 0x7fff_e000, Value: 64},
	}
}

func TestRecordingAppendAndReplay(t *testing.T) {
	rec := NewRecording()
	events := sampleEvents()
	for _, e := range events {
		rec.Emit(e)
	}
	if rec.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", rec.Len(), len(events))
	}
	if rec.Accesses() != 4 {
		t.Errorf("Accesses = %d, want 4", rec.Accesses())
	}
	for i, want := range events {
		if got := rec.At(i); got != want {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
	var buf Buffer
	rec.Replay(&buf)
	if !reflect.DeepEqual(buf.Events, events) {
		t.Errorf("Replay delivered %v, want %v", buf.Events, events)
	}
}

func TestRecordingColumns(t *testing.T) {
	rec := NewRecording()
	for _, e := range sampleEvents() {
		rec.Emit(e)
	}
	ops, addrs, vals := rec.Columns()
	if len(ops) != rec.Len() || len(addrs) != rec.Len() || len(vals) != rec.Len() {
		t.Fatalf("column lengths %d/%d/%d, want %d", len(ops), len(addrs), len(vals), rec.Len())
	}
	for i := range ops {
		if got, want := (Event{Op: ops[i], Addr: addrs[i], Value: vals[i]}), rec.At(i); got != want {
			t.Errorf("columns[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestRecordingReset(t *testing.T) {
	rec := NewRecording()
	for _, e := range sampleEvents() {
		rec.Emit(e)
	}
	rec.Reset()
	if rec.Len() != 0 || rec.Accesses() != 0 {
		t.Fatalf("after Reset: Len=%d Accesses=%d", rec.Len(), rec.Accesses())
	}
	rec.Append(Load, 4, 7)
	if rec.Len() != 1 || rec.At(0) != (Event{Op: Load, Addr: 4, Value: 7}) {
		t.Errorf("append after Reset gave %v", rec.At(0))
	}
}

func TestRecordingSpillRoundTrip(t *testing.T) {
	rec := NewRecording()
	for _, e := range sampleEvents() {
		rec.Emit(e)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(rec.Len()) {
		t.Errorf("WriteTo reported %d events, want %d", n, rec.Len())
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rec.Len() || got.Accesses() != rec.Accesses() {
		t.Fatalf("round trip: Len=%d Accesses=%d, want %d/%d",
			got.Len(), got.Accesses(), rec.Len(), rec.Accesses())
	}
	for i := 0; i < rec.Len(); i++ {
		if got.At(i) != rec.At(i) {
			t.Errorf("event %d: got %v, want %v", i, got.At(i), rec.At(i))
		}
	}
}

// TestReadRecordingExactColumns: a loaded recording keeps no spare
// column capacity, at sizes below, at and past a growth step.
func TestReadRecordingExactColumns(t *testing.T) {
	for _, n := range []int{0, 1, minRecordingCap, minRecordingCap + 1, 3*minRecordingCap + 5} {
		rec := NewRecording()
		for i := 0; i < n; i++ {
			rec.Append(Op(i%2), uint32(i)*WordBytes, uint32(i))
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRecording(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ops, addrs, vals := got.Columns()
		if len(ops) != n || cap(ops) != n || cap(addrs) != n || cap(vals) != n {
			t.Errorf("%d events: len %d, caps %d/%d/%d, want all %d",
				n, len(ops), cap(ops), cap(addrs), cap(vals), n)
		}
		for i := 0; i < n; i++ {
			if got.At(i) != rec.At(i) {
				t.Fatalf("%d events: event %d = %v, want %v", n, i, got.At(i), rec.At(i))
			}
		}
	}
}

func TestReadRecordingCorrupt(t *testing.T) {
	rec := NewRecording()
	for _, e := range sampleEvents() {
		rec.Emit(e)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream: the hardened reader must surface a
	// *CorruptError, not a partial silent success.
	raw := buf.Bytes()[:buf.Len()-2]
	_, err := ReadRecording(bytes.NewReader(raw))
	var ce *CorruptError
	if err == nil || !errors.As(err, &ce) {
		t.Fatalf("truncated stream: got err %v, want *CorruptError", err)
	}
	if _, err := ReadRecording(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic must error")
	}
}
