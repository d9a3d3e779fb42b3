package remote

// End-to-end distributed tracing tests: a real (small) sct campaign over
// httptest loopback with fleet tracing on, reassembled into complete
// lease→submit traces; plus the worker self-watchdog.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"surw/internal/experiments"
	"surw/internal/obs"
)

func TestTracingDisabledByDefault(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{})
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	if la.Lease.Traceparent != "" {
		t.Fatalf("untraced lease carries traceparent %q", la.Lease.Traceparent)
	}
	if spans := c.Spans(); spans != nil {
		t.Fatalf("untraced coordinator recorded %d spans", len(spans))
	}
}

func TestEndToEndDistributedTrace(t *testing.T) {
	sc := sctScale()
	st := newMemStore()
	plan := experiments.SCTPlan(sc)
	c := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 3, Tracing: true})
	srv := httptest.NewServer(c)
	defer srv.Close()

	// Two workers drain the plan concurrently, each with span retention on
	// (as surw worker -trace would set).
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		w := newTestWorker(name, srv.URL)
		w.RetainSpans = true
		go func() { errs <- w.Run(context.Background()) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !c.Done() {
		t.Fatal("plan not drained")
	}

	spans := c.Spans()
	complete, total, firstErr := obs.CountComplete(spans)
	if total == 0 {
		t.Fatal("no traces assembled")
	}
	// Every lease in a clean run (no expiries, no duplicates) must
	// assemble into a complete end-to-end trace.
	if complete != total {
		t.Fatalf("%d/%d traces complete: %v", complete, total, firstErr)
	}

	// Span inventory: each trace crosses tracks and carries the session
	// and prefix-replay structure.
	traces := obs.AssembleTraces(spans)
	for i := range traces {
		tr := &traces[i]
		root := tr.Root()
		if root.Track != "coordinator" || root.Lease == "" || root.Target == "" {
			t.Fatalf("root span unannotated: %+v", root)
		}
		var workerTrack string
		for _, s := range tr.Spans {
			if s.Track != "coordinator" {
				workerTrack = s.Track
			}
		}
		if workerTrack != "w1" && workerTrack != "w2" {
			t.Fatalf("trace %s has no worker track", tr.ID)
		}
	}

	// GET /v1/spans serves the same spans as JSONL.
	resp, err := http.Get(srv.URL + PathSpans)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := obs.ReadSpansJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != len(spans) {
		t.Fatalf("/v1/spans served %d spans, coordinator holds %d", len(served), len(spans))
	}

	// The fleet latency view picked up worker-side operations.
	rs := c.Status()
	ops := map[string]bool{}
	for _, s := range rs.Latencies {
		ops[s.Op] = true
	}
	for _, want := range []string{"lease_rpc", "session", "checkpoint_fork", "submit", "queue_wait"} {
		if !ops[want] {
			t.Errorf("fleet latency view missing op %q (have %v)", want, ops)
		}
	}

	// The rendered fleet trace is valid Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := obs.WriteSpanChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("fleet Chrome trace invalid: %v", err)
	}
}

// An expired lease's root span still closes (annotated as expired) so the
// trace is never leaked half-open.
func TestExpiredLeaseClosesSpan(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 2, Tracing: true})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	leaseFor(t, srv.URL, "dead")
	clk.advance(2 * time.Minute)
	c.Health() // forces expiry

	var found bool
	for _, s := range c.Spans() {
		if s.Name == "lease" && s.Err == "expired" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no expired lease span in %+v", c.Spans())
	}
}

func TestWatchLeaseFiresOnStall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progress atomic.Int64
	fired := make(chan time.Duration, 4)
	go watchLease(ctx, 30*time.Millisecond, &progress, func(age time.Duration) { fired <- age })

	select {
	case age := <-fired:
		if age < 30*time.Millisecond {
			t.Fatalf("watchdog fired at age %v, before the deadline", age)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a stalled lease")
	}
	// It re-arms: a second stall after the first report also fires.
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog did not re-arm after firing")
	}
}

func TestWatchLeaseStaysQuietUnderProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var progress atomic.Int64
	fired := make(chan time.Duration, 1)
	go watchLease(ctx, 80*time.Millisecond, &progress, func(age time.Duration) { fired <- age })

	// Keep making progress well inside the deadline for several periods.
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		progress.Add(1)
	}
	cancel()
	select {
	case age := <-fired:
		t.Fatalf("watchdog fired (age %v) despite steady progress", age)
	case <-time.After(50 * time.Millisecond):
	}
}

// The worker wires the watchdog through: a Watchdog-enabled worker whose
// sessions complete normally never reports a stall.
func TestWorkerWatchdogQuietOnHealthyRun(t *testing.T) {
	sc := sctScale()
	st := newMemStore()
	c := NewCoordinator(st, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 3})
	srv := httptest.NewServer(c)
	defer srv.Close()

	w := newTestWorker("w", srv.URL)
	w.Watchdog = 5 * time.Second
	var stalls atomic.Int64
	w.stalled = func(leaseID string, age time.Duration) { stalls.Add(1) }
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if n := stalls.Load(); n != 0 {
		t.Fatalf("healthy run reported %d stalls", n)
	}
	if !c.Done() {
		t.Fatal("plan not drained")
	}
}
