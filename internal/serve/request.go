package serve

// The request skeleton every POST endpoint shares: one strict decoder
// in front (open), the stage clock in between (trace.go), and one
// NDJSON writer behind the two streaming endpoints.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"fvcache/api"
)

// maxBodyBytes bounds request bodies; a measurement request is a few
// KB even with a long explicit FVT.
const maxBodyBytes = 1 << 20

// open is the front half of every POST endpoint: it refuses any other
// method (405), counts the request and raises the in-flight gauge,
// opens the request's trace and its parse stage, turns new work away
// while draining (503), and strictly decodes the body into req (400).
// On a refusal it has answered and sealed the trace and returns nil.
// Otherwise the caller validates req, ends parse, and answers through
// the returned track, whose finish lowers the gauge again.
func (s *Server) open(endpoint string, w http.ResponseWriter, r *http.Request, req any) (*reqTrack, stageClock) {
	if r.Method != http.MethodPost {
		s.track(endpoint, w, r).fail(http.StatusMethodNotAllowed, errors.New("POST required"))
		return nil, stageClock{}
	}
	reqTotal.Inc()
	if endpoint == "mrc" {
		mrcRequests.Inc()
	}
	inflightReqs.Set(inflightDelta(1))
	t := s.track(endpoint, w, r)
	t.inflight = true
	parse := t.stage("parse", stageParseUS)
	if s.draining.Load() {
		t.fail(http.StatusServiceUnavailable, errDraining)
		return nil, stageClock{}
	}
	if err := decodeStrict(io.LimitReader(r.Body, maxBodyBytes), req); err != nil {
		t.fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return nil, stageClock{}
	}
	return t, parse
}

// decodeStrict decodes exactly one JSON value into v. A field v does
// not declare, or anything but white space after the value, is an
// error: a misspelled key must not silently fall back to a default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value at offset %d", end)
	}
	return nil
}

// ndjson streams a 200 response as newline-delimited JSON. The headers
// (Content-Type, and X-Fvcache-Forwarded-By when the stream is relayed
// from the fleet owner) are set with the first line, and every line
// but the last is flushed as soon as it is written.
type ndjson struct {
	t           *reqTrack
	enc         *json.Encoder
	flusher     http.Flusher
	forwardedBy string
	// started is set once the first line is written: the 200 is then on
	// the wire, and a failure can only travel in-band (fail).
	started bool
}

// ndjson starts the request's stream; forwardedBy is this node's URL
// when it relays the owner's stream, "" otherwise.
func (t *reqTrack) ndjson(forwardedBy string) ndjson {
	flusher, _ := t.w.(http.Flusher)
	return ndjson{t: t, enc: json.NewEncoder(t.w), flusher: flusher, forwardedBy: forwardedBy}
}

// line writes one line and flushes it.
func (n *ndjson) line(v any) {
	n.last(v)
	if n.flusher != nil {
		n.flusher.Flush()
	}
}

// last writes the stream's final line, which net/http flushes together
// with the end of the response when the handler returns.
func (n *ndjson) last(v any) {
	if !n.started {
		n.started = true
		h := n.t.w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		if n.forwardedBy != "" {
			h.Set(api.HeaderForwardedBy, n.forwardedBy)
		}
	}
	n.enc.Encode(v)
}

// fail ends a started stream with e as the terminal error_line — the
// same envelope a non-2xx body carries — and seals the trace.
func (n *ndjson) fail(e *api.Error) {
	n.t.tr.SetError(e.Message)
	n.line(struct {
		Error *api.Error `json:"error_line"`
	}{e})
	n.t.finish(http.StatusOK, "error")
}
