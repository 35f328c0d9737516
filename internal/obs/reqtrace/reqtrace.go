// Package reqtrace is the per-request causality layer on top of obs:
// every request served by fvcached gets a trace ID (honoring inbound
// X-Request-Id / traceparent headers, minting one otherwise) and a
// bounded span tree recording where its time went — coalesce wait,
// queue wait, cache probe, replay, encode. Finished traces land in a
// fixed-size flight-recorder ring buffer served at /debug/requests,
// and the newest traces are exported into the telemetry snapshot via
// obs.Registry.SetRequestTraces.
//
// Design constraints mirror obs: everything is bounded (fixed span
// capacity per trace, fixed ring size), the hot path allocates nothing
// (traces are pooled values with inline span arrays; IDs are minted
// into a fixed buffer), and under the obsoff build tag every operation
// short-circuits on a shared no-op trace.
package reqtrace

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fvcache/internal/obs"
)

// MaxSpans bounds the spans one trace can hold; later Begin/Add calls
// are counted in Dropped instead of growing the trace. A request's
// serving path has well under this many stages.
const MaxSpans = 24

// maxIDLen bounds an accepted or minted trace ID. Inbound IDs longer
// than this are truncated; 64 covers a 128-bit hex traceparent ID with
// room for human-readable client IDs.
const maxIDLen = 64

// span is one stage of a request, stored flat with a parent index.
type span struct {
	name    string
	parent  int32
	startNS int64 // offset from trace start
	durNS   int64 // -1 while open
}

// Trace accumulates one request's span tree. It is owned by a single
// request goroutine between Start and Finish; methods are not safe for
// concurrent use on the same Trace (matching net/http handler
// semantics). The zero spans live inline so a pooled Trace allocates
// nothing per request.
type Trace struct {
	noop    bool
	rec     *Recorder
	id      [maxIDLen]byte
	idLen   int
	start   time.Time
	nspans  int32
	dropped int32
	spans   [MaxSpans]span

	endpoint string
	workload string
	outcome  string
	errMsg   string
	status   int
}

// noopTrace is handed out when telemetry is compiled out or no
// recorder is configured; every method returns immediately.
var noopTrace = &Trace{noop: true}

// ID returns the trace's identifier.
func (t *Trace) ID() string {
	if t == nil || t.noop {
		return ""
	}
	return string(t.id[:t.idLen])
}

// SetWorkload tags the trace with the workload it measured.
func (t *Trace) SetWorkload(w string) {
	if t == nil || t.noop {
		return
	}
	t.workload = w
}

// SetOutcome records the HTTP status and outcome class (hit,
// coalesced, executed, 429, 503, 504, error).
func (t *Trace) SetOutcome(status int, outcome string) {
	if t == nil || t.noop {
		return
	}
	t.status = status
	t.outcome = outcome
}

// SetError records the request's error string.
func (t *Trace) SetError(msg string) {
	if t == nil || t.noop {
		return
	}
	t.errMsg = msg
}

// Begin opens a span under parent (-1 for a root span) starting now
// and returns its index for End. Returns -1 when the trace is full or
// inactive.
func (t *Trace) Begin(name string, parent int) int { return t.BeginAt(name, parent, time.Now()) }

// BeginAt is Begin with the span's start time given, for callers that
// time the same stage elsewhere from the same clock reading.
func (t *Trace) BeginAt(name string, parent int, at time.Time) int {
	if t == nil || t.noop {
		return -1
	}
	if int(t.nspans) >= MaxSpans {
		t.dropped++
		return -1
	}
	i := t.nspans
	t.spans[i] = span{name: name, parent: int32(parent), startNS: int64(at.Sub(t.start)), durNS: -1}
	t.nspans++
	return int(i)
}

// End closes the span opened by Begin now.
func (t *Trace) End(idx int) { t.EndAt(idx, time.Now()) }

// EndAt closes the span opened by Begin at the given time.
func (t *Trace) EndAt(idx int, at time.Time) {
	if t == nil || t.noop || idx < 0 || idx >= int(t.nspans) {
		return
	}
	sp := &t.spans[idx]
	if sp.durNS == -1 {
		sp.durNS = int64(at.Sub(t.start)) - sp.startNS
		if sp.durNS < 0 {
			sp.durNS = 0
		}
	}
}

// Add records a completed span from externally captured timestamps
// (batch stage times measured on the worker goroutine). Zero or
// inverted timestamps are skipped — a stubbed executor may never stamp
// them. A start before the trace start clamps to 0: the batch a
// request coalesced into may predate the request itself. Returns the
// span index, or -1 if skipped.
func (t *Trace) Add(name string, parent int, start, end time.Time) int {
	if t == nil || t.noop {
		return -1
	}
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return -1
	}
	if int(t.nspans) >= MaxSpans {
		t.dropped++
		return -1
	}
	startNS := int64(0)
	if start.After(t.start) {
		startNS = int64(start.Sub(t.start))
	}
	i := t.nspans
	t.spans[i] = span{name: name, parent: int32(parent), startNS: startNS, durNS: int64(end.Sub(start))}
	t.nspans++
	return int(i)
}

// frozen is one sealed trace in the ring. The ID stays as raw bytes
// here — converting it to a string is deferred to the cold read path
// (Traces) so Finish stays allocation-free.
type frozen struct {
	id    [maxIDLen]byte
	idLen int
	trace obs.RequestTrace // ID field left empty until read
}

// Recorder owns the flight-recorder ring and the trace pool.
type Recorder struct {
	mu   sync.Mutex
	ring []frozen
	next uint64 // total finishes; ring slot is next % len(ring)
	pool sync.Pool
	seed atomic.Uint64
}

// NewRecorder returns a recorder keeping the most recent n finished
// traces (n <= 0 selects the default of 256).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 256
	}
	r := &Recorder{ring: make([]frozen, n)}
	r.pool.New = func() any { return new(Trace) }
	r.seed.Store(uint64(time.Now().UnixNano()))
	return r
}

// Mint returns a fresh 16-byte hex trace ID.
func (r *Recorder) Mint() string {
	var buf [32]byte
	n := r.mintInto(buf[:])
	return string(buf[:n])
}

// mintInto writes a fresh hex ID into dst and returns its length.
// splitmix64 over an atomic counter: unique within the process,
// seeded from boot time so IDs differ across restarts, and
// allocation-free.
func (r *Recorder) mintInto(dst []byte) int {
	x := r.seed.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hex = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		dst[i] = hex[(x>>uint(60-4*i))&0xf]
	}
	return 16
}

// Start begins a trace for an inbound request, honoring an
// X-Request-Id or traceparent header and minting an ID otherwise.
func (r *Recorder) Start(endpoint string, h http.Header) *Trace {
	if !obs.Enabled || r == nil {
		return noopTrace
	}
	t := r.pool.Get().(*Trace)
	t.reset(r, endpoint, time.Now())
	if id := h.Get("X-Request-Id"); id != "" {
		t.idLen = copySanitized(t.id[:], id)
	}
	if t.idLen == 0 {
		// "Traceparent" is the canonical form under which net/http
		// stores the (wire-lowercase) W3C header; the lowercase key
		// would force an allocating canonicalization inside Get.
		if id := traceparentID(h.Get("Traceparent")); id != "" {
			t.idLen = copy(t.id[:], id)
		}
	}
	if t.idLen == 0 {
		t.idLen = r.mintInto(t.id[:])
	}
	return t
}

// StartTrace begins a trace with an explicit ID and start time — used
// for batch-level traces whose lifetime is the batch, not one HTTP
// request. An empty id mints one.
func (r *Recorder) StartTrace(endpoint, id string, at time.Time) *Trace {
	if !obs.Enabled || r == nil {
		return noopTrace
	}
	t := r.pool.Get().(*Trace)
	if at.IsZero() {
		at = time.Now()
	}
	t.reset(r, endpoint, at)
	if id != "" {
		t.idLen = copySanitized(t.id[:], id)
	}
	if t.idLen == 0 {
		t.idLen = r.mintInto(t.id[:])
	}
	return t
}

// reset prepares a pooled trace for reuse.
func (t *Trace) reset(r *Recorder, endpoint string, at time.Time) {
	t.noop = false
	t.rec = r
	t.idLen = 0
	t.start = at
	t.nspans = 0
	t.dropped = 0
	t.endpoint = endpoint
	t.workload = ""
	t.outcome = ""
	t.errMsg = ""
	t.status = 0
}

// Finish seals the trace, copies it into the ring, and returns it to
// the pool. The Trace must not be used after Finish.
func (r *Recorder) Finish(t *Trace) {
	if t == nil || t.noop || t.rec != r || r == nil {
		return
	}
	durNS := int64(time.Since(t.start))
	r.mu.Lock()
	slot := &r.ring[r.next%uint64(len(r.ring))]
	r.next++
	freezeInto(slot, t, durNS)
	r.mu.Unlock()
	r.pool.Put(t)
}

// freezeInto writes t's snapshot form into slot, reusing the slot's
// span slice when capacity allows — after warm-up, recording a trace
// allocates nothing.
func freezeInto(f *frozen, t *Trace, durNS int64) {
	f.idLen = copy(f.id[:], t.id[:t.idLen])
	dst := &f.trace
	dst.ID = ""
	dst.Endpoint = t.endpoint
	dst.Workload = t.workload
	dst.Status = t.status
	dst.Outcome = t.outcome
	dst.Error = t.errMsg
	dst.Start = t.start.UTC()
	dst.DurationUS = durNS / 1e3
	dst.Dropped = int(t.dropped)
	n := int(t.nspans)
	if cap(dst.Spans) < n {
		dst.Spans = make([]obs.RequestSpan, n)
	} else {
		dst.Spans = dst.Spans[:n]
	}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		d := sp.durNS
		if d < 0 { // span left open: charge it to end-of-request
			d = durNS - sp.startNS
			if d < 0 {
				d = 0
			}
		}
		dst.Spans[i] = obs.RequestSpan{
			Name:       sp.name,
			Parent:     int(sp.parent),
			StartUS:    sp.startNS / 1e3,
			DurationUS: d / 1e3,
		}
	}
}

// Traces returns the recorded traces, newest first. The result is a
// deep-enough copy: callers may hold it across further recording.
func (r *Recorder) Traces() []obs.RequestTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	total := uint64(len(r.ring))
	if n < total {
		total = n
	}
	out := make([]obs.RequestTrace, 0, total)
	for i := uint64(0); i < total; i++ {
		f := &r.ring[(n-1-i)%uint64(len(r.ring))]
		t := f.trace
		t.ID = string(f.id[:f.idLen])
		t.Spans = append([]obs.RequestSpan(nil), t.Spans...)
		out = append(out, t)
	}
	return out
}

// Handler serves the flight recorder as JSON: the recent traces newest
// first, with ?n= limiting the count, ?slowest=K selecting the K
// highest-latency traces, and ?errors=1 keeping only non-2xx requests.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traces := r.Traces()
		q := req.URL.Query()
		if q.Get("errors") == "1" {
			kept := traces[:0]
			for _, t := range traces {
				if t.Status >= 400 || t.Error != "" {
					kept = append(kept, t)
				}
			}
			traces = kept
		}
		if k, err := strconv.Atoi(q.Get("slowest")); err == nil && k > 0 {
			sort.SliceStable(traces, func(i, j int) bool {
				return traces[i].DurationUS > traces[j].DurationUS
			})
			if k < len(traces) {
				traces = traces[:k]
			}
		} else if n, err := strconv.Atoi(q.Get("n")); err == nil && n >= 0 && n < len(traces) {
			traces = traces[:n]
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Count  int                `json:"count"`
			Traces []obs.RequestTrace `json:"traces"`
		}{len(traces), traces}); err != nil {
			// Too late for an HTTP error; nothing to do.
			_ = err
		}
	})
}

// copySanitized copies printable ASCII from src into dst (other bytes
// become '_'), truncating to len(dst). Keeps hostile header values out
// of logs and JSON.
func copySanitized(dst []byte, src string) int {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		c := src[i]
		if c < 0x21 || c > 0x7e {
			c = '_'
		}
		dst[i] = c
	}
	return n
}

// traceparentID extracts the 32-hex trace-id field from a W3C
// traceparent header ("00-<32 hex>-<16 hex>-<flags>"), or "" if the
// header is malformed.
func traceparentID(v string) string {
	if len(v) < 3+32 || v[2] != '-' {
		return ""
	}
	id := v[3 : 3+32]
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
	}
	if len(v) > 3+32 && v[3+32] != '-' {
		return ""
	}
	return id
}
