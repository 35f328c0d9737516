// The obs behavior tests exercise the enabled build; the obsoff
// no-op contract is pinned in obsoff_test.go.
//go:build !obsoff

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// populated builds a registry exercising every metric kind.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("events_total").Add(123)
	r.Gauge(Labeled("events_per_sec", "workload", "ccomp")).Set(1e6)
	r.Histogram("task_ms").Observe(12)
	r.Histogram("task_ms").Observe(900)
	sp := r.Root().Begin("record")
	sp.Begin("spill").Done()
	sp.Done()
	return r
}

func TestSnapshotRoundTripAndValidate(t *testing.T) {
	r := populated()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ValidateSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateSnapshot: %v\n%s", err, buf.String())
	}
	if s.Counters["events_total"] != 123 {
		t.Errorf("counter lost: %v", s.Counters)
	}
	if s.Gauges[`events_per_sec{workload="ccomp"}`] != 1e6 {
		t.Errorf("labeled gauge lost: %v", s.Gauges)
	}
	if h := s.Histograms["task_ms"]; h.Count != 2 || h.Sum != 912 {
		t.Errorf("histogram lost: %+v", h)
	}
	if len(s.Phases.Children) != 1 || s.Phases.Children[0].Name != "record" {
		t.Errorf("phase tree lost: %+v", s.Phases)
	}
}

func TestValidateSnapshotRejects(t *testing.T) {
	good, _ := json.Marshal(populated().Snapshot())
	cases := map[string]func(m map[string]json.RawMessage){
		"wrong schema": func(m map[string]json.RawMessage) { m["schema"] = json.RawMessage(`"other/v9"`) },
		// The previous schema carried the old log2 histogram shape.
		"v1 schema": func(m map[string]json.RawMessage) {
			m["schema"] = json.RawMessage(strconv.Quote(strings.Replace(SnapshotSchema, "/v2", "/v1", 1)))
		},
		"no phases":  func(m map[string]json.RawMessage) { m["phases"] = json.RawMessage(`null`) },
		"no capture": func(m map[string]json.RawMessage) { m["captured_at"] = json.RawMessage(`"0001-01-01T00:00:00Z"`) },
		"neg uptime": func(m map[string]json.RawMessage) { m["uptime_ms"] = json.RawMessage(`-5`) },
		"bad buckets": func(m map[string]json.RawMessage) {
			m["histograms"] = json.RawMessage(`{"h":{"sigfigs":2,"count":2,"sum":3,"buckets":[{"le":5,"count":2},{"le":3,"count":1}]}}`)
		},
		"no sigfigs": func(m map[string]json.RawMessage) {
			m["histograms"] = json.RawMessage(`{"h":{"count":1,"sum":3,"buckets":[{"le":3,"count":1}]}}`)
		},
		"bad quantiles": func(m map[string]json.RawMessage) {
			m["histograms"] = json.RawMessage(`{"h":{"sigfigs":2,"count":1,"sum":3,"p50":9,"p90":3,"buckets":[{"le":3,"count":1}]}}`)
		},
	}
	for name, corrupt := range cases {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		corrupt(m)
		data, _ := json.Marshal(m)
		if _, err := ValidateSnapshot(data); err == nil {
			t.Errorf("%s: validation must fail", name)
		}
	}
	if _, err := ValidateSnapshot([]byte("{not json")); err == nil {
		t.Error("malformed JSON must fail validation")
	}
}

func TestWriteSnapshotFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := WriteSnapshotFile(path, populated()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); err == nil {
		t.Error("temp file left behind")
	}
}

func TestPrometheusExport(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE events_total counter",
		"events_total 123",
		`events_per_sec{workload="ccomp"} 1e+06`,
		"# TYPE task_ms histogram",
		`task_ms_bucket{le="+Inf"} 2`,
		"task_ms_sum 912",
		"task_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagsRegisterStartStop(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	err := fs.Parse([]string{
		"-log-level", "error",
		"-memprofile", filepath.Join(dir, "mem.pb.gz"),
		"-telemetry-out", filepath.Join(dir, "telemetry.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer setLogLevel(slog.LevelWarn)
	if Log.Enabled(context.Background(), slog.LevelWarn) {
		t.Error("log level must have been raised to error")
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatalf("telemetry snapshot not written: %v", err)
	}
	if _, err := ValidateSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "mem.pb.gz")); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

func TestFlagsBadLevelFailsStart(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("Start must reject a bad -log-level")
	}
}
