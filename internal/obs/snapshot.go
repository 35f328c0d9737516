package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// SnapshotSchema identifies the telemetry.json format. Bump on
// incompatible changes; ValidateSnapshot rejects other schemas.
const SnapshotSchema = "fvcache-telemetry/v2"

// Snapshot is a frozen, serializable view of a Registry: every
// counter, gauge and histogram plus the run's phase tree. It is what
// the cmd binaries write to telemetry.json, making benchmark and sweep
// trajectories machine-diffable across runs.
type Snapshot struct {
	Schema     string    `json:"schema"`
	CapturedAt time.Time `json:"captured_at"`
	// UptimeMS is the registry's age at capture (root span duration).
	UptimeMS int64              `json:"uptime_ms"`
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	// Histograms holds every histogram, keyed by name (Labeled names
	// pass through).
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Phases     *PhaseNode                   `json:"phases"`
	// Requests holds recent per-request span trees from the flight
	// recorder, newest first, when a provider is installed (at most
	// maxSnapshotRequests of them, however large the live ring is).
	Requests []RequestTrace `json:"requests,omitempty"`
}

// maxSnapshotRequests bounds the request traces embedded in an
// exported snapshot, keeping telemetry.json reviewable even when the
// flight recorder is sized for deep /debug/requests history.
const maxSnapshotRequests = 256

// HistogramSnapshot is one Histogram frozen: headline quantiles plus
// the cumulative non-empty buckets (Le = highest value equivalent to
// the bucket, so bounds are strictly increasing). SigFigs records the
// precision the buckets were cut at, so a merge can refuse a peer
// recorded on another lattice.
type HistogramSnapshot struct {
	SigFigs int      `json:"sigfigs"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	P50     uint64   `json:"p50"`
	P90     uint64   `json:"p90"`
	P99     uint64   `json:"p99"`
	P999    uint64   `json:"p999"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// RequestTrace is one request's frozen span tree as recorded by the
// flight recorder. Spans are stored flat with parent indices: Parent
// is -1 for a root span and otherwise indexes an earlier span in the
// slice (parents always precede children).
type RequestTrace struct {
	ID         string        `json:"id"`
	Endpoint   string        `json:"endpoint"`
	Workload   string        `json:"workload,omitempty"`
	Status     int           `json:"status"`
	Outcome    string        `json:"outcome,omitempty"`
	Error      string        `json:"error,omitempty"`
	Start      time.Time     `json:"start"`
	DurationUS int64         `json:"duration_us"`
	Dropped    int           `json:"dropped,omitempty"`
	Spans      []RequestSpan `json:"spans,omitempty"`
}

// RequestSpan is one stage of a request trace. StartUS is the offset
// from the trace start.
type RequestSpan struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
}

// Bucket is one cumulative histogram bucket: Count observations were
// <= Le.
type Bucket struct {
	Le    uint64 `json:"le"` // upper bound, inclusive
	Count uint64 `json:"count"`
}

// PhaseNode is one frozen span of the phase tree.
type PhaseNode struct {
	Name       string       `json:"name"`
	DurationMS int64        `json:"duration_ms"`
	Open       bool         `json:"open,omitempty"`
	Dropped    int          `json:"dropped,omitempty"`
	Children   []*PhaseNode `json:"children,omitempty"`
}

// Snapshot freezes the registry. Concurrent metric updates during the
// capture land in either side — each individual metric read is atomic.
func (r *Registry) Snapshot() *Snapshot {
	now := time.Now()
	r.mu.Lock()
	s := &Snapshot{
		Schema:     SnapshotSchema,
		CapturedAt: now.UTC(),
		UptimeMS:   now.Sub(r.start).Milliseconds(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.freeze()
	}
	reqFn := r.reqTraces
	root := r.root
	r.mu.Unlock()
	if reqFn != nil {
		s.Requests = reqFn()
		// Bound the exported artifact: the live flight recorder may be
		// sized for /debug/requests inspection (thousands of slots), but
		// a telemetry snapshot keeps only the most recent traces.
		if len(s.Requests) > maxSnapshotRequests {
			s.Requests = s.Requests[:maxSnapshotRequests]
		}
	}
	s.Phases = root.snapshot(now)
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteSnapshotFile captures r and writes it to path atomically (temp
// file + rename), so a crash mid-write cannot leave a torn artifact.
func WriteSnapshotFile(path string, r *Registry) error {
	s := r.Snapshot()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ValidateSnapshot parses data as a telemetry snapshot and checks its
// schema: the schema id must match, the capture time must be set, the
// phase tree must be rooted, and every histogram must carry a sane
// sigfigs, cumulative buckets monotonic in both bound and count, and
// ordered quantiles. Returns the parsed snapshot so callers can assert
// on contents.
func ValidateSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("obs: telemetry snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("obs: telemetry schema %q, want %q", s.Schema, SnapshotSchema)
	}
	if s.CapturedAt.IsZero() {
		return nil, fmt.Errorf("obs: telemetry snapshot has no capture time")
	}
	if s.UptimeMS < 0 {
		return nil, fmt.Errorf("obs: negative uptime %dms", s.UptimeMS)
	}
	if s.Phases == nil || s.Phases.Name == "" {
		return nil, fmt.Errorf("obs: telemetry snapshot has no phase tree")
	}
	if err := validatePhase(s.Phases); err != nil {
		return nil, err
	}
	for name, h := range s.Histograms {
		if h.SigFigs < 1 || h.SigFigs > 5 {
			return nil, fmt.Errorf("obs: histogram %q has sigfigs %d outside [1,5]", name, h.SigFigs)
		}
		var prevLe, prevCount uint64
		for i, b := range h.Buckets {
			if i > 0 && (b.Le <= prevLe || b.Count < prevCount) {
				return nil, fmt.Errorf("obs: histogram %q buckets not monotonic at le=%d", name, b.Le)
			}
			prevLe, prevCount = b.Le, b.Count
		}
		if n := len(h.Buckets); n > 0 && h.Buckets[n-1].Count != h.Count {
			return nil, fmt.Errorf("obs: histogram %q cumulative count %d != count %d",
				name, h.Buckets[n-1].Count, h.Count)
		}
		if h.Count > 0 && (h.P50 > h.P90 || h.P90 > h.P99 || h.P99 > h.P999) {
			return nil, fmt.Errorf("obs: histogram %q quantiles not monotonic (p50=%d p90=%d p99=%d p999=%d)",
				name, h.P50, h.P90, h.P99, h.P999)
		}
	}
	for i := range s.Requests {
		if err := validateRequestTrace(&s.Requests[i]); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// validateRequestTrace checks one request trace's well-formedness: a
// non-empty ID, sane durations, and a span list in which every parent
// index refers to an earlier span (or -1 for roots).
func validateRequestTrace(t *RequestTrace) error {
	if t.ID == "" {
		return fmt.Errorf("obs: request trace with empty id")
	}
	if t.DurationUS < 0 {
		return fmt.Errorf("obs: request %q has negative duration", t.ID)
	}
	for i, sp := range t.Spans {
		if sp.Name == "" {
			return fmt.Errorf("obs: request %q span %d unnamed", t.ID, i)
		}
		if sp.Parent < -1 || sp.Parent >= i {
			return fmt.Errorf("obs: request %q span %q has parent %d (must be -1 or an earlier span)",
				t.ID, sp.Name, sp.Parent)
		}
		if sp.StartUS < 0 || sp.DurationUS < 0 {
			return fmt.Errorf("obs: request %q span %q has negative time", t.ID, sp.Name)
		}
	}
	return nil
}

// validatePhase checks one phase subtree: named nodes, sane durations.
func validatePhase(n *PhaseNode) error {
	if n.Name == "" {
		return fmt.Errorf("obs: unnamed phase node")
	}
	if n.DurationMS < 0 {
		return fmt.Errorf("obs: phase %q has negative duration", n.Name)
	}
	for _, c := range n.Children {
		if err := validatePhase(c); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus writes the registry in Prometheus text exposition
// format. Labeled metric names (see Labeled) pass through unchanged;
// other characters invalid in metric names are mapped to '_'.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	for _, name := range names(s.Counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", promBase(name), promName(name), s.Counters[name])
	}
	for _, name := range names(s.Gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", promBase(name), promName(name), s.Gauges[name])
	}
	// Labeled series of one metric share a base name: emit one TYPE
	// line per base (names() sorts, so same-base series are adjacent)
	// and carry the series labels onto every bucket/sum/count line.
	typed := ""
	for _, name := range names(s.Histograms) {
		h := s.Histograms[name]
		base, labels := promSplit(name)
		if base != typed {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
			typed = base
		}
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, promLe(labels, strconv.FormatUint(bk.Le, 10)), bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", base, promLe(labels, "+Inf"), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %d\n%s_count%s %d\n", base, promSuffix(labels), h.Sum, base, promSuffix(labels), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promBase strips a label suffix and sanitizes the bare metric name.
func promBase(name string) string {
	base, _ := promSplit(name)
	return base
}

// promSplit splits a Labeled name into the sanitized base and the
// label body without braces ("" when unlabeled).
func promSplit(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return sanitize(name[:i]), strings.TrimSuffix(name[i+1:], "}")
	}
	return sanitize(name), ""
}

// promLe renders a bucket label set: the series labels (if any) with
// le appended.
func promLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

// promSuffix renders the series labels for _sum/_count lines.
func promSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// promName sanitizes the name part while preserving a {label="x"}
// suffix produced by Labeled.
func promName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return sanitize(name[:i]) + name[i:]
	}
	return sanitize(name)
}

// sanitize maps characters outside [a-zA-Z0-9_:] to '_'.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}
