package batch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Event kinds, in the order a well-behaved item emits them. An item
// ends with exactly one terminal event: refined (success) or error.
const (
	// EventCoarse carries the first usable answer for an item — the
	// static split or a threshold-store warm start — before the fine
	// sweep runs.
	EventCoarse = "coarse"
	// EventRefined carries the item's final estimate. Terminal.
	EventRefined = "refined"
	// EventError reports that the item produced no refined estimate;
	// Code says why. Terminal.
	EventError = "error"
	// EventSummary is the job trailer, emitted once after every item
	// has reached a terminal event.
	EventSummary = "summary"
)

// Item error codes carried on EventError.
const (
	// CodeShed: admission could not fit the item; it was dropped from
	// the job's LIFO tail (the batch analogue of a 429).
	CodeShed = "shed"
	// CodeDeadline: the item's carved budget expired before its sweep
	// finished.
	CodeDeadline = "deadline_exceeded"
	// CodeBackendFailed: the gateway lost the backend serving this
	// item's sub-batch before the item finished.
	CodeBackendFailed = "backend_failed"
	// CodeInvalid: the item references an unknown dataset/workload or
	// an unparsable matrix.
	CodeInvalid = "invalid"
	// CodeInternal: the item's pipeline failed for a reason that is
	// not the client's fault (evaluation error, worker loss).
	CodeInternal = "internal"
)

// Event is one NDJSON line of a batch response stream.
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Item names the item this event belongs to; empty on the summary.
	Item string `json:"item,omitempty"`
	// Estimate is the single-request response body (the /estimate JSON
	// schema) for coarse/refined events — carried opaquely so the
	// gateway re-emits backend payloads without re-encoding them.
	Estimate json.RawMessage `json:"estimate,omitempty"`
	// Code classifies error events (CodeShed, CodeDeadline, ...).
	Code string `json:"code,omitempty"`
	// Error is the human-readable failure detail for error events.
	Error string `json:"error,omitempty"`
	// Degraded marks a terminal event whose payload is a fallback
	// (static split under shed/failure) rather than a refined sweep.
	Degraded bool `json:"degraded,omitempty"`
	// Backend is gateway provenance: which backend produced the event.
	// Empty on direct hetserve responses.
	Backend string `json:"backend,omitempty"`
	// Summary is the job trailer payload (summary events only).
	Summary *Summary `json:"summary,omitempty"`
}

// Terminal reports whether the event finishes its item.
func (e Event) Terminal() bool { return e.Type == EventRefined || e.Type == EventError }

// Summary is the job trailer: the aggregate accounting a client needs
// to reason about what the batch actually cost.
type Summary struct {
	Items     int `json:"items"`
	Completed int `json:"completed"`
	Shed      int `json:"shed,omitempty"`
	Failed    int `json:"failed,omitempty"`
	Degraded  int `json:"degraded,omitempty"`
	// Admissions is how many pool admissions the job performed (1 for
	// a direct hetserve job; one per sub-batch through the gateway).
	Admissions int `json:"admissions"`
	// Builds is how many workload constructions ran (cache misses).
	Builds int `json:"builds"`
	// WallMS is the job wall-clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// Mode is a negotiated response encoding.
type Mode int

const (
	// ModeBuffered collects every event and answers with one JSON
	// object {"events":[...],"summary":{...}} after the job finishes.
	ModeBuffered Mode = iota
	// ModeNDJSON streams one JSON event per line, flushed as emitted.
	ModeNDJSON
	// ModeSSE streams Server-Sent Events: "event: <type>" + "data:
	// <json>" records, flushed as emitted.
	ModeSSE
)

// ContentType returns the response Content-Type for the mode.
func (m Mode) ContentType() string {
	switch m {
	case ModeNDJSON:
		return "application/x-ndjson"
	case ModeSSE:
		return "text/event-stream"
	default:
		return "application/json"
	}
}

// Negotiate picks the response encoding from an Accept header.
// text/event-stream selects SSE, application/x-ndjson (or ndjson)
// selects NDJSON, everything else — including absent — buffers. The
// gateway always requests NDJSON from backends regardless of what the
// client asked it for.
func Negotiate(accept string) Mode {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "text/event-stream":
			return ModeSSE
		case "application/x-ndjson", "application/ndjson":
			return ModeNDJSON
		}
	}
	return ModeBuffered
}

// Writer emits batch events in the negotiated encoding. Streaming
// modes write and flush each event immediately — that is the whole
// point of the subsystem — while buffered mode retains events until
// Close. Writer is safe for concurrent Emit calls: the gateway's
// merge stage funnels several backend streams into one.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	flush   http.Flusher
	mode    Mode
	events  []Event  // buffered mode only
	summary *Summary // buffered mode only
	started bool
	err     error
}

// NewWriter wraps an http.ResponseWriter (or any io.Writer; flushing
// is skipped when the writer does not implement http.Flusher).
func NewWriter(w io.Writer, mode Mode) *Writer {
	bw := &Writer{w: w, mode: mode}
	if f, ok := w.(http.Flusher); ok {
		bw.flush = f
	}
	return bw
}

// Start writes the response header exactly once. Callers emit it
// before the first event so streaming clients see headers immediately.
func (w *Writer) Start(hw http.ResponseWriter) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	hw.Header().Set("Content-Type", w.mode.ContentType())
	if w.mode != ModeBuffered {
		hw.Header().Set("Cache-Control", "no-store")
		hw.Header().Set("X-Accel-Buffering", "no")
		hw.WriteHeader(http.StatusOK)
		if w.flush != nil {
			w.flush.Flush()
		}
	}
}

// Emit writes one event (immediately in streaming modes, retained in
// buffered mode). The first write error sticks; later Emits are
// dropped so a disconnected client cancels the job via context rather
// than panicking mid-stream.
func (w *Writer) Emit(e Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.mode == ModeBuffered {
		if e.Type == EventSummary {
			w.summary = e.Summary
		} else {
			w.events = append(w.events, e)
		}
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		w.err = err
		return err
	}
	switch w.mode {
	case ModeSSE:
		_, err = fmt.Fprintf(w.w, "event: %s\ndata: %s\n\n", e.Type, b)
	default: // NDJSON
		b = append(b, '\n')
		_, err = w.w.Write(b)
	}
	if err != nil {
		w.err = err
		return err
	}
	if w.flush != nil {
		w.flush.Flush()
	}
	return nil
}

// Close finishes the response. Streaming modes have already written
// everything; buffered mode serializes the retained events now.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.mode != ModeBuffered {
		return nil
	}
	body := struct {
		Events  []Event  `json:"events"`
		Summary *Summary `json:"summary,omitempty"`
	}{Events: w.events, Summary: w.summary}
	if body.Events == nil {
		body.Events = []Event{}
	}
	enc := json.NewEncoder(w.w)
	enc.SetIndent("", "  ")
	return enc.Encode(body)
}

// ReadEvents incrementally decodes an NDJSON event stream, invoking fn
// for each event as it arrives. It returns the first decode/callback
// error, or nil at clean EOF. The gateway uses it to re-merge backend
// sub-batch streams while they are still in flight.
func ReadEvents(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	// Refined events embed full /estimate payloads; give headroom well
	// past bufio's 64 KiB default line cap.
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("decoding batch event: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}
