package obs

// Distributed tracing for campaign fleets: a pooled, zero-cost-when-
// disabled span model with W3C-style context propagation, so a coordinator
// and its workers can jointly describe where a lease's wall-clock went —
// coordinator grant, worker prefix capture, each session, and the accepted
// submit — and the pieces reassemble into one end-to-end trace.
//
// The model is deliberately tiny:
//
//   - TraceID/SpanID are W3C trace-context shaped (16/8 random bytes, hex
//     on the wire); a SpanContext travels between processes as a
//     `traceparent` header value (00-<trace>-<span>-01) on the existing
//     lease/heartbeat/submit HTTP calls.
//   - A SpanLog collects finished spans for one track (one worker, or the
//     coordinator). The completed-span buffer is pooled: Drain hands the
//     spans over and recycles the backing array. A nil *SpanLog is the
//     disabled state — every method is a nil-check no-op, so untraced
//     fleets pay zero allocations and zero atomics.
//   - Durations are monotonic (time.Since on the starting time.Time);
//     Start timestamps are wall-clock nanoseconds, used only to align
//     tracks for rendering, never to compute a duration.
//
// Assembly (AssembleTraces / Trace.Complete) groups spans by TraceID and
// verifies the lease→submit shape; WriteSpanChromeTrace renders any span
// set as Chrome trace_event JSON with one Perfetto track per SpanLog
// track, so a fleet trace opens in ui.perfetto.dev directly.

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (one lease lifecycle).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MarshalText implements encoding.TextMarshaler (hex, as in W3C headers).
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("obs: trace id %q: want 32 hex chars", b)
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// MarshalText implements encoding.TextMarshaler.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("obs: span id %q: want 16 hex chars", b)
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// SpanContext is the propagated half of a span: enough for a remote
// process to parent its own spans under it.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Traceparent renders the context as a W3C trace-context header value
// (version 00, sampled flag set): 00-<32 hex>-<16 hex>-01.
func (c SpanContext) Traceparent() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are accepted if the field shape matches (per the spec's forward-
// compatibility rule); an all-zero trace or span ID is invalid.
func ParseTraceparent(s string) (SpanContext, error) {
	var c SpanContext
	parts := strings.Split(s, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return c, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	if err := c.Trace.UnmarshalText([]byte(parts[1])); err != nil {
		return c, err
	}
	if err := c.Span.UnmarshalText([]byte(parts[2])); err != nil {
		return c, err
	}
	if c.Trace.IsZero() || c.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q has a zero id", s)
	}
	return c, nil
}

// TraceparentHeader is the HTTP header spans propagate through.
const TraceparentHeader = "traceparent"

// Span is one finished span, in its JSON wire form (fleet span logs are
// JSONL of these). Start is wall-clock nanoseconds; Dur is a monotonic
// duration in nanoseconds.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Track  string  `json:"track"`
	Start  int64   `json:"start_ns"`
	Dur    int64   `json:"dur_ns"`

	// Annotations; all optional.
	Lease   string `json:"lease,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Target  string `json:"target,omitempty"`
	Alg     string `json:"alg,omitempty"`
	Session int    `json:"session,omitempty"` // 1-based (like Session.FirstBug); 0 = n/a
	N       int    `json:"n,omitempty"`       // generic count (sessions in a lease, records accepted)
	HB      int    `json:"hb,omitempty"`      // heartbeats seen while the span was open
	Err     string `json:"err,omitempty"`
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// SpanLog collects the finished spans of one track. A nil *SpanLog is the
// disabled tracer: every method no-ops, costing one nil check and zero
// allocations. All methods are safe for concurrent use.
type SpanLog struct {
	track string

	mu    sync.Mutex
	rng   *rand.Rand
	spans []Span // pooled: Drain recycles the backing array
}

// NewSpanLog returns an enabled span log whose spans carry the given track
// name (the worker or coordinator identity — one Perfetto track each).
func NewSpanLog(track string) *SpanLog {
	return &SpanLog{track: track, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

// Enabled reports whether the log records spans (false on nil).
func (l *SpanLog) Enabled() bool { return l != nil }

// Track returns the log's track name ("" on nil).
func (l *SpanLog) Track() string {
	if l == nil {
		return ""
	}
	return l.track
}

// newIDLocked fills b with random bytes. Caller holds l.mu.
func (l *SpanLog) newIDLocked(b []byte) {
	for i := range b {
		b[i] = byte(l.rng.Intn(256))
	}
	// An all-zero ID is reserved for "unset"; re-draw the (astronomically
	// unlikely) zero.
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[0] = 1
	}
}

// NewRoot mints a fresh trace and returns the context of its root-to-be
// span. Zero value on nil.
func (l *SpanLog) NewRoot() SpanContext {
	if l == nil {
		return SpanContext{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var c SpanContext
	l.newIDLocked(c.Trace[:])
	l.newIDLocked(c.Span[:])
	return c
}

// NewSpanID mints a span ID (for spans whose ID must be known before they
// finish, e.g. a session span that parents phase spans). Zero on nil.
func (l *SpanLog) NewSpanID() SpanID {
	if l == nil {
		return SpanID{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var id SpanID
	l.newIDLocked(id[:])
	return id
}

// Add records a finished span, stamping the log's track (and a fresh ID if
// the span has none). No-op on nil.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID.IsZero() {
		l.newIDLocked(s.ID[:])
	}
	if s.Track == "" {
		s.Track = l.track
	}
	l.spans = append(l.spans, s)
}

// Start opens a span under parent (a zero parent span ID makes it the
// trace root). End the returned OpenSpan to record it. Usable on nil: the
// returned OpenSpan no-ops.
func (l *SpanLog) Start(parent SpanContext, name string) OpenSpan {
	if l == nil {
		return OpenSpan{}
	}
	o := OpenSpan{l: l, t0: time.Now()}
	o.Span = Span{Trace: parent.Trace, Parent: parent.Span, ID: l.NewSpanID(),
		Name: name, Track: l.track, Start: o.t0.UnixNano()}
	return o
}

// Len returns the number of spans held (0 on nil).
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Drain returns the held spans and recycles the buffer: the returned slice
// is the caller's, the log keeps the capacity of a fresh internal one.
// Nil on nil.
func (l *SpanLog) Drain() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = l.spans[len(l.spans):]
	return out
}

// Snapshot copies the held spans without draining them. Nil on nil.
func (l *SpanLog) Snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// OpenSpan is a span in flight. The zero value (from a nil SpanLog) is
// inert: Context returns the zero context and End does nothing.
type OpenSpan struct {
	// Span is the span under construction; annotate its optional fields
	// (Lease, Target, Err, ...) before End.
	Span Span

	l  *SpanLog
	t0 time.Time
}

// Active reports whether ending the span will record it.
func (o *OpenSpan) Active() bool { return o.l != nil }

// Context returns the open span's propagation context (children recorded
// under it nest inside this span).
func (o *OpenSpan) Context() SpanContext {
	return SpanContext{Trace: o.Span.Trace, Span: o.Span.ID}
}

// End stamps the monotonic duration and records the span. No-op on the
// zero OpenSpan; a second End records a duplicate, so don't.
func (o *OpenSpan) End() {
	if o.l == nil {
		return
	}
	o.Span.Dur = int64(time.Since(o.t0))
	o.l.Add(o.Span)
}

// --- persistence -----------------------------------------------------------

// WriteSpansJSONL appends spans to w, one JSON object per line — the fleet
// span-log format surw obs assembles and checks.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses a fleet span log written by WriteSpansJSONL.
func ReadSpansJSONL(r io.Reader) ([]Span, error) {
	var spans []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: span log line %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
}

// ReadSpansFile is ReadSpansJSONL over a file path.
func ReadSpansFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpansJSONL(f)
}

// --- assembly --------------------------------------------------------------

// FleetTrace is the reassembled view of one TraceID: every span the fleet
// recorded for it, in start order.
type FleetTrace struct {
	ID    TraceID
	Spans []Span
}

// AssembleTraces groups spans by TraceID (spans without one are dropped)
// and sorts each trace's spans by start time, root first on ties.
func AssembleTraces(spans []Span) []FleetTrace {
	byID := make(map[TraceID][]Span)
	var order []TraceID
	for _, s := range spans {
		if s.Trace.IsZero() {
			continue
		}
		if _, ok := byID[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byID[s.Trace] = append(byID[s.Trace], s)
	}
	out := make([]FleetTrace, 0, len(order))
	for _, id := range order {
		t := FleetTrace{ID: id, Spans: byID[id]}
		sort.SliceStable(t.Spans, func(i, j int) bool {
			si, sj := &t.Spans[i], &t.Spans[j]
			if si.Start != sj.Start {
				return si.Start < sj.Start
			}
			return si.Parent.IsZero() && !sj.Parent.IsZero()
		})
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Spans[0].Start < out[j].Spans[0].Start
	})
	return out
}

// Root returns the trace's root span (no parent), nil if none was
// captured.
func (t *FleetTrace) Root() *Span {
	for i := range t.Spans {
		if t.Spans[i].Parent.IsZero() {
			return &t.Spans[i]
		}
	}
	return nil
}

// Complete verifies the trace is an end-to-end lease trace: a single
// "lease" root, at least one "session" span with its "prefix-replay"
// child, a "submit" span, every parent link resolving to a span in the
// trace, spans on at least two tracks (coordinator and a worker), and no
// child starting before its trace's root.
func (t *FleetTrace) Complete() error {
	root := t.Root()
	if root == nil {
		return fmt.Errorf("trace %s: no root span", t.ID)
	}
	if root.Name != "lease" {
		return fmt.Errorf("trace %s: root span is %q, want \"lease\"", t.ID, root.Name)
	}
	ids := make(map[SpanID]bool, len(t.Spans))
	tracks := make(map[string]bool)
	names := make(map[string]int)
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.ID.IsZero() {
			return fmt.Errorf("trace %s: span %q has no id", t.ID, s.Name)
		}
		if ids[s.ID] {
			return fmt.Errorf("trace %s: duplicate span id %s", t.ID, s.ID)
		}
		ids[s.ID] = true
		tracks[s.Track] = true
		names[s.Name]++
		if s.Dur < 0 {
			return fmt.Errorf("trace %s: span %q has negative duration", t.ID, s.Name)
		}
	}
	for i := range t.Spans {
		s := &t.Spans[i]
		if !s.Parent.IsZero() && !ids[s.Parent] {
			return fmt.Errorf("trace %s: span %q parent %s not in trace", t.ID, s.Name, s.Parent)
		}
	}
	for _, want := range []string{"session", "prefix-replay", "submit"} {
		if names[want] == 0 {
			return fmt.Errorf("trace %s: no %q span", t.ID, want)
		}
	}
	if len(tracks) < 2 {
		return fmt.Errorf("trace %s: all spans on one track %v — not distributed", t.ID, tracks)
	}
	return nil
}

// CountComplete assembles the spans and reports how many traces pass
// Complete, plus the first incompleteness seen (nil when every trace is
// complete).
func CountComplete(spans []Span) (complete, total int, firstErr error) {
	traces := AssembleTraces(spans)
	for i := range traces {
		if err := traces[i].Complete(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		complete++
	}
	return complete, len(traces), firstErr
}

// WriteSpanChromeTrace renders spans as Chrome trace_event JSON with one
// track (tid) per SpanLog track, so a fleet span log opens in Perfetto
// with the coordinator and each worker on its own line. Timestamps are
// wall-clock microseconds normalized to the earliest span.
func WriteSpanChromeTrace(w io.Writer, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("obs: no spans to render")
	}
	trackNames := make(map[string]bool)
	t0 := spans[0].Start
	for i := range spans {
		trackNames[spans[i].Track] = true
		if spans[i].Start < t0 {
			t0 = spans[i].Start
		}
	}
	sorted := make([]string, 0, len(trackNames))
	for name := range trackNames {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	tids := make(map[string]int, len(sorted))
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "surw fleet"},
	})
	for i, name := range sorted {
		tids[name] = i
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: i,
			Args: map[string]any{"name": name},
		})
	}
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"trace": s.Trace.String(), "span": s.ID.String()}
		if s.Lease != "" {
			args["lease"] = s.Lease
		}
		if s.Target != "" {
			args["target"] = s.Target
		}
		if s.Alg != "" {
			args["alg"] = s.Alg
		}
		if s.Session > 0 {
			args["session"] = s.Session - 1
		}
		if s.N > 0 {
			args["n"] = s.N
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		dur := int(s.Dur / 1000)
		if dur < 1 {
			dur = 1
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X",
			TS: int((s.Start - t0) / 1000), Dur: dur,
			PID: 0, TID: tids[s.Track], Args: args,
		})
	}
	return WriteJSON(w, &tr)
}
