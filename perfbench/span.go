package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself carries no benchmark
// instrumentation). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // the input, e.g. a workload name
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	trace uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newTrace returns a fresh trace ID grouping the spans of one op,
// one setup or one probe.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// add records a span over [start, end] and returns its index, or -1
// when tracing is off.
func (t *tracer) add(name, attr string, trace uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Attr: attr, Trace: trace, Parent: parent,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// begin opens a span that end closes, for spans that have children.
func (t *tracer) begin(name, attr string, trace uint64, parent int) int {
	now := time.Now()
	return t.add(name, attr, trace, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns fn's duration, which callers
// use whether or not tracing is on.
func (t *tracer) time(name, attr string, trace uint64, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, attr, trace, parent, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent calls under one parent) are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfSummary totals duration and self time per span name, largest
// self time first.
func selfSummary(spans []span) []selfRow {
	self := selfTimes(spans)
	rows := map[string]*selfRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += ms(s.dur())
		r.SelfMS += ms(self[i])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// writeSpans writes every span as one JSON line, followed by one line
// per span name with its total and self time.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	// Encode cannot fail on these types; a write error sticks in w and
	// Flush reports it.
	for _, s := range spans {
		_ = enc.Encode(s)
	}
	for _, r := range selfSummary(spans) {
		_ = enc.Encode(map[string]selfRow{"self": r})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// sumBy totals the durations of spans with the given name, per trace.
func sumBy(spans []span, name string) map[uint64]time.Duration {
	out := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Trace] += s.dur()
		}
	}
	return out
}
