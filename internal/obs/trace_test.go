package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	l := NewSpanLog("w1")
	root := l.NewRoot()
	hdr := root.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q not W3C shaped", hdr)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatalf("round trip: got %+v want %+v", got, root)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-short-span-01",
		"00-" + strings.Repeat("0", 32) + "-1122334455667788-01",                 // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-1122334455667788-01",                // non-hex
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// Unknown version with the right shape is accepted (forward compat).
	if _, err := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

func TestNilSpanLogIsInert(t *testing.T) {
	var l *SpanLog
	if l.Enabled() || l.Track() != "" || l.Len() != 0 {
		t.Fatal("nil SpanLog not inert")
	}
	if c := l.NewRoot(); c.Valid() {
		t.Fatal("nil NewRoot returned a valid context")
	}
	o := l.Start(SpanContext{}, "x")
	if o.Active() {
		t.Fatal("nil Start returned an active span")
	}
	o.End() // must not panic or record
	l.Add(Span{Name: "x"})
	if l.Drain() != nil || l.Snapshot() != nil {
		t.Fatal("nil SpanLog holds spans")
	}
}

// The disabled tracer is the hot-path default: it must cost zero
// allocations per span operation.
func TestNilSpanLogZeroAllocs(t *testing.T) {
	var l *SpanLog
	allocs := testing.AllocsPerRun(100, func() {
		o := l.Start(SpanContext{}, "session")
		o.End()
		_ = l.NewSpanID()
	})
	if allocs != 0 {
		t.Fatalf("nil SpanLog: %v allocs/op, want 0", allocs)
	}
}

func TestSpanLogStartEndDrain(t *testing.T) {
	l := NewSpanLog("worker-a")
	root := l.NewRoot()
	o := l.Start(SpanContext{Trace: root.Trace}, "lease")
	o.Span.Lease = "L1"
	child := l.Start(o.Context(), "session")
	child.Span.Session = 1
	time.Sleep(time.Millisecond)
	child.End()
	o.End()

	spans := l.Drain()
	if len(spans) != 2 {
		t.Fatalf("drained %d spans, want 2", len(spans))
	}
	if l.Len() != 0 {
		t.Fatalf("log not empty after drain")
	}
	// Child recorded first (it ended first); parent links hold.
	if spans[0].Name != "session" || spans[1].Name != "lease" {
		t.Fatalf("span order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatal("child does not parent to the lease span")
	}
	if spans[0].Trace != root.Trace || spans[1].Trace != root.Trace {
		t.Fatal("spans not on the root trace")
	}
	if spans[0].Dur <= 0 {
		t.Fatalf("child duration %d, want > 0", spans[0].Dur)
	}
	if spans[0].Track != "worker-a" {
		t.Fatalf("track %q, want worker-a", spans[0].Track)
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	l := NewSpanLog("w")
	root := l.NewRoot()
	o := l.Start(SpanContext{Trace: root.Trace}, "lease")
	o.Span.Target = "Fig1/bitshift_4"
	o.End()
	want := l.Snapshot()

	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// buildFleetTrace fabricates a complete two-track lease trace.
func buildFleetTrace(t *testing.T) []Span {
	t.Helper()
	coord := NewSpanLog("coordinator")
	worker := NewSpanLog("w1")

	root := coord.NewRoot()
	lease := coord.Start(SpanContext{Trace: root.Trace}, "lease")
	lease.Span.Lease = "L1"

	exec := worker.Start(lease.Context(), "execute")
	sessID := worker.NewSpanID()
	worker.Add(Span{Trace: root.Trace, ID: worker.NewSpanID(), Parent: sessID,
		Name: "prefix-replay", Start: time.Now().UnixNano(), Dur: 100})
	worker.Add(Span{Trace: root.Trace, ID: sessID, Parent: exec.Span.ID,
		Name: "session", Session: 1, Start: time.Now().UnixNano(), Dur: 5000})
	exec.End()

	submit := coord.Start(exec.Context(), "submit")
	submit.End()
	lease.End()

	return append(coord.Snapshot(), worker.Snapshot()...)
}

func TestAssembleAndComplete(t *testing.T) {
	spans := buildFleetTrace(t)
	traces := AssembleTraces(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	tr := &traces[0]
	if root := tr.Root(); root == nil || root.Name != "lease" {
		t.Fatalf("root = %+v, want the lease span", root)
	}
	if err := tr.Complete(); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	complete, total, firstErr := CountComplete(spans)
	if complete != 1 || total != 1 || firstErr != nil {
		t.Fatalf("CountComplete = (%d, %d, %v), want (1, 1, nil)", complete, total, firstErr)
	}
}

func TestCompleteRejectsPartialTraces(t *testing.T) {
	full := buildFleetTrace(t)

	drop := func(name string) []Span {
		var out []Span
		for _, s := range full {
			if s.Name != name {
				out = append(out, s)
			}
		}
		return out
	}
	for _, name := range []string{"lease", "session", "prefix-replay", "submit"} {
		if c, _, _ := CountComplete(drop(name)); c != 0 {
			t.Errorf("trace without %q counted complete", name)
		}
	}

	// Single-track (undistributed) trace is not complete.
	onTrack := make([]Span, len(full))
	copy(onTrack, full)
	for i := range onTrack {
		onTrack[i].Track = "coordinator"
	}
	if c, _, err := CountComplete(onTrack); c != 0 || err == nil {
		t.Errorf("single-track trace counted complete (err=%v)", err)
	}

	// Dangling parent.
	dangling := make([]Span, len(full))
	copy(dangling, full)
	for i := range dangling {
		if dangling[i].Name == "submit" {
			dangling[i].Parent = SpanID{0xde, 0xad}
		}
	}
	if c, _, _ := CountComplete(dangling); c != 0 {
		t.Error("trace with dangling parent counted complete")
	}
}

func TestWriteSpanChromeTrace(t *testing.T) {
	spans := buildFleetTrace(t)
	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("rendered trace fails validation: %v", err)
	}
	page := buf.String()
	// One named track per SpanLog track.
	for _, track := range []string{"coordinator", "w1"} {
		if !strings.Contains(page, `"name":"`+track+`"`) && !strings.Contains(page, `"name": "`+track+`"`) {
			t.Errorf("missing thread_name metadata for track %q", track)
		}
	}
}
