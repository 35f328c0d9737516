package api

import (
	"encoding/json"
	"testing"
	"time"
)

// TestFingerprintCanonical: a config spelled with explicit defaults and
// one relying on zero values must share a fingerprint after
// normalization — the fleet's ownership, batch coalescing and the
// durable cache all key on it.
func TestFingerprintCanonical(t *testing.T) {
	implicit := Config{}.Normalized()
	explicit := Config{MainBytes: 16 << 10, LineBytes: 32, Assoc: 1}.Normalized()
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("default spellings diverge: %q vs %q", implicit.Fingerprint(), explicit.Fingerprint())
	}
	a := Config{MainBytes: 8192, FVCEntries: 64}.Normalized()
	b := Config{MainBytes: 8192, FVCEntries: 64, FVCBits: 3}.Normalized()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("default FVC bits diverge: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	c := Config{MainBytes: 8192, FVCEntries: 64, FVCBits: 4}.Normalized()
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("distinct FVC widths share a fingerprint")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MainBytes: 7}, // not a power-of-two geometry
		{MainBytes: 8192, FVCEntries: 64, VictimEntries: 8}, // mutually exclusive
		{MainBytes: 8192, VictimEntries: -1},
	}
	for i, c := range bad {
		if err := c.Normalized().Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := (Config{}).Normalized().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestErrorEnvelopeJSON pins the wire shape: all four envelope keys are
// emitted even at their zero values, and the transport-only fields
// (Status, RetryAfter) never leak into the body.
func TestErrorEnvelopeJSON(t *testing.T) {
	e := Error{Message: "boom", Reason: ReasonBadRequest, Status: 400, RetryAfter: 3 * time.Second}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"error", "reason", "retryable", "trace_id"} {
		if _, ok := m[k]; !ok {
			t.Errorf("envelope key %q omitted: %s", k, data)
		}
	}
	for _, k := range []string{"Status", "status", "RetryAfter", "retry_after"} {
		if _, ok := m[k]; ok {
			t.Errorf("transport field %q leaked onto the wire: %s", k, data)
		}
	}
	var back Error
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Message != "boom" || back.Reason != ReasonBadRequest {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if e.Error() == "" || !(&Error{Retryable: true}).Temporary() {
		t.Error("Error()/Temporary() misbehave")
	}
}
