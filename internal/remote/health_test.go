package remote

// Stall-detection tests: each health rule exercised over the injectable
// clock, plus the verdicts on /v1/status and the surw_health_* gauges.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/obs/promtest"
	"surw/internal/runner"
	"surw/internal/sched"
)

func TestHealthStaleWorker(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(8), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 4})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	if h := c.Status().Health; !h.Healthy {
		t.Fatalf("fresh coordinator unhealthy: %+v", h)
	}
	leaseFor(t, srv.URL, "a")
	// Worker b drains the other batch in 30 s, 15 s of it busy, and takes
	// its leave: its silence from here on is what it announced.
	lb := leaseFor(t, srv.URL, "b")
	clk.advance(30 * time.Second)
	req := ResultRequest{Worker: "b", LeaseID: lb.Lease.ID, BusyMillis: 15_000, Records: sessionRecordsFor(lb.Lease)}
	if code := postJSON(t, srv.URL+PathResult, req, nil); code != http.StatusOK {
		t.Fatalf("b's submission: status %d", code)
	}
	if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{Worker: "b"}, nil); code != http.StatusNoContent {
		t.Fatalf("b's leave-taking: status %d", code)
	}
	// The stale deadline is 3x the TTL; 4 minutes of silence crosses it
	// (and expires a's lease, so no aging-lease issue).
	clk.advance(4 * time.Minute)
	rs := c.Status()
	h := rs.Health
	if h.Healthy || h.StaleWorkers != 1 {
		t.Fatalf("health after silence: %+v, want 1 stale worker", h)
	}
	if len(h.Issues) != 1 || h.Issues[0].Kind != campaign.HealthStaleWorker || h.Issues[0].Subject != "a" {
		t.Fatalf("issues: %+v, want a stale and b, departed, not", h.Issues)
	}
	if h.AgingLeases != 0 {
		t.Fatalf("expired lease still counted as aging: %+v", h)
	}
	// A departed worker's utilization is over the life it had, not one
	// that goes on decaying after its leave-taking.
	if w := rs.Workers[1]; w.Name != "b" || w.Utilization != 0.5 {
		t.Fatalf("departed worker %+v, want b at utilization 0.5", w)
	}
}

func TestHealthAgingLease(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(4), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 4})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	hb := HeartbeatRequest{Worker: "a", LeaseID: la.Lease.ID}
	// Heartbeat every 30s for 6 minutes: the lease stays alive (the
	// worker is not stale) but never finishes — the aging rule (5x TTL)
	// is the only one that can see this.
	for i := 0; i < 12; i++ {
		clk.advance(30 * time.Second)
		if code := postJSON(t, srv.URL+PathHeartbeat, hb, nil); code != http.StatusNoContent {
			t.Fatalf("heartbeat %d: status %d", i, code)
		}
	}
	h := c.Status().Health
	if h.Healthy || h.AgingLeases != 1 || h.StaleWorkers != 0 {
		t.Fatalf("health: %+v, want exactly 1 aging lease", h)
	}
	issue := h.Issues[0]
	if issue.Kind != campaign.HealthAgingLease || issue.Subject != la.Lease.ID {
		t.Fatalf("issue: %+v", issue)
	}
	if !strings.Contains(issue.Detail, "12 heartbeats") {
		t.Fatalf("detail %q does not count the heartbeats", issue.Detail)
	}
}

func TestHealthEndpointAndGauges(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(4), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 4})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	leaseFor(t, srv.URL, "a")
	clk.advance(4 * time.Minute)

	// The verdicts are a member of the status page; there is no second
	// health page.
	resp, err := http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served campaign.RemoteStatus
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if h := served.Health; h == nil || h.Healthy || h.StaleWorkers != 1 {
		t.Fatalf("%s health: %+v", PathStatus, h)
	}
	gone, err := http.Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/health: status %d, want 404", gone.StatusCode)
	}
	// Nor is a class asked about: the class census is the store's.
	q := map[string]any{"worker": "a", "classes": []string{"0000000000000abc"}}
	if code := postJSON(t, srv.URL+"/v1/classes", q, nil); code != http.StatusNotFound {
		t.Fatalf("POST /v1/classes: status %d, want 404", code)
	}

	// The same verdict rides RemoteStatus and its Prometheus page.
	rs := c.Status()
	if rs.Health == nil || rs.Health.StaleWorkers != 1 {
		t.Fatalf("status health: %+v", rs.Health)
	}
	var b strings.Builder
	if err := rs.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{"surw_health_ok 0", "surw_health_stale_workers 1"} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
	if err := promtest.Lint(strings.NewReader(page)); err != nil {
		t.Errorf("remote status page fails lint: %v", err)
	}
}

// Worker names arrive unvalidated over /v1/lease and become label values.
// A name with a quote, a brace, a tab and a backslash must leave the page
// valid text format 0.0.4 — only \\, \" and \n are escapes there — and
// must come back out of its label unchanged.
func TestHostileWorkerNameOnMetricsPage(t *testing.T) {
	const name = "w\"}\t\\"
	c := NewCoordinator(newMemStore(), syntheticPlan(2), CoordinatorOptions{})
	srv := httptest.NewServer(c)
	defer srv.Close()
	leaseFor(t, srv.URL, name)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	if err := promtest.Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("page with a hostile worker name fails lint: %v\n%s", err, page)
	}
	const open, shut = "surw_remote_worker_inflight_leases{worker=\"", "\"} 1\n"
	i := strings.Index(page, open)
	if i < 0 {
		t.Fatalf("no per-worker sample on the page:\n%s", page)
	}
	rest := page[i+len(open):]
	j := strings.Index(rest, shut)
	if j < 0 {
		t.Fatalf("per-worker sample does not end in %q: %q", shut, rest)
	}
	got := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(rest[:j])
	if got != name {
		t.Fatalf("worker label round-trips to %q, want %q", got, name)
	}
}

// Latency shipping: the coordinator folds its own queue-wait histogram
// with the latest per-worker snapshots — which ride the heartbeats, not
// the result submissions — replacing (not accumulating) a worker's
// re-shipped cumulative set.
func TestFleetLatencyAggregation(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()

	var wlat obs.LatencySet
	wlat.Observe("session", 5*time.Millisecond)
	la := leaseFor(t, srv.URL, "a")
	hb := HeartbeatRequest{Worker: "a", LeaseID: la.Lease.ID, Latencies: wlat.Wire()}
	if code := postJSON(t, srv.URL+PathHeartbeat, hb, nil); code != 204 {
		t.Fatalf("heartbeat: status %d", code)
	}
	req := ResultRequest{Worker: "a", LeaseID: la.Lease.ID, Records: sessionRecordsFor(la.Lease)}
	var lb ResultResponse
	if code := postJSON(t, srv.URL+PathResult, req, &lb); code != 200 || lb.Lease == nil {
		t.Fatalf("submit: status %d, reply %+v, want the next lease", code, lb)
	}

	// The second snapshot is *cumulative* (2 observations) and arrives with
	// the worker's leave-taking, lease-less. The fleet view must show 2,
	// not 1+2.
	wlat.Observe("session", 7*time.Millisecond)
	req = ResultRequest{Worker: "a", LeaseID: lb.Lease.ID, Records: sessionRecordsFor(lb.Lease)}
	if code := postJSON(t, srv.URL+PathResult, req, nil); code != 200 {
		t.Fatalf("submit 2: status %d", code)
	}
	if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{Worker: "a", Latencies: wlat.Wire()}, nil); code != 204 {
		t.Fatalf("closing heartbeat: status %d", code)
	}

	rs := c.Status()
	var sessions, queueWait *obs.LatencySnap
	for i := range rs.Latencies {
		switch rs.Latencies[i].Op {
		case "session":
			sessions = &rs.Latencies[i]
		case "queue_wait":
			queueWait = &rs.Latencies[i]
		}
	}
	if sessions == nil || sessions.Count != 2 {
		t.Fatalf("fleet session latency: %+v, want count 2 (latest snapshot, not a fold)", sessions)
	}
	if queueWait == nil || queueWait.Count != 2 {
		t.Fatalf("fleet queue_wait latency: %+v, want one observation per grant", queueWait)
	}
}

// Snapshots ride the heartbeats, and every lease of this drain ends long
// before its first heartbeat (a third of the 30 s default TTL) falls due:
// what the coordinator ends up holding can only have come with each
// worker's leave-taking as Run returned. It must be the worker's final
// cumulative view — every session and every submit — or the fleet latency
// page of a campaign of short hunts would be empty.
func TestShortLeasesStillDeliverSnapshots(t *testing.T) {
	sc := sctScale()
	plan := experiments.SCTPlan(sc)
	c := NewCoordinator(newMemStore(), plan, CoordinatorOptions{BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()

	workers := []*Worker{newTestWorker("w1", srv.URL), newTestWorker("w2", srv.URL)}
	errs := make(chan error, len(workers))
	for _, w := range workers {
		go func() { errs <- w.Run(context.Background()) }()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !c.Done() || !c.AllWorkersNotified() {
		t.Fatalf("done %v, all workers gone %v after both Runs returned", c.Done(), c.AllWorkersNotified())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sessions := uint64(0)
	for _, w := range workers {
		got, want := c.workerLat[w.Name], w.lat.Wire()
		for _, op := range []string{"lease_rpc", "session", "checkpoint_fork", "submit"} {
			if got[op].Count == 0 || got[op].Count != want[op].Count {
				t.Errorf("%s: coordinator holds %d %s observations, the worker ended with %d",
					w.Name, got[op].Count, op, want[op].Count)
			}
		}
		if got["submit"].Count != got["session"].Count {
			t.Errorf("%s: %d submits for %d one-session leases", w.Name, got["submit"].Count, got["session"].Count)
		}
		sessions += got["session"].Count
	}
	if sessions != uint64(len(plan)) {
		t.Errorf("the workers' shipped snapshots cover %d sessions, the plan has %d", sessions, len(plan))
	}
}

// One heartbeat loop serves every lease of a Run. Here each of two leases
// lasts several TTLs: only the loop's beats keep them from expiring, and
// the beats are what carries the worker's snapshots while a lease runs —
// the target looks into the coordinator from inside the second lease and
// must find the first lease's session already delivered.
func TestHeartbeatsKeepLeaseAliveAndCarrySnapshots(t *testing.T) {
	const ttl = 300 * time.Millisecond
	plan := syntheticPlan(2)
	for i := range plan {
		plan[i].Limit = 25
	}
	c := NewCoordinator(newMemStore(), plan, CoordinatorOptions{LeaseTTL: ttl, BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()

	var delivered atomic.Uint64 // most session observations of w seen at the coordinator from inside a lease
	slow := runner.Target{Name: "t/x", Prog: func(*sched.Thread) {
		time.Sleep(ttl / 10) // x Limit 25: a lease of two and a half TTLs
		c.mu.Lock()
		n := c.workerLat["w"]["session"].Count
		c.mu.Unlock()
		if n > delivered.Load() {
			delivered.Store(n)
		}
	}}
	w := newTestWorker("w", srv.URL)
	w.Resolve = func(string) (runner.Target, bool) { return slow, true }
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	rs := c.Status()
	if !c.Done() || rs.LeaseExpiries != 0 || rs.DuplicateResults != 0 {
		t.Fatalf("done %v, %d expiries, %d duplicates: a lease outlived its TTL unrenewed", c.Done(), rs.LeaseExpiries, rs.DuplicateResults)
	}
	if delivered.Load() != 1 {
		t.Fatalf("inside the second lease the coordinator held %d session observations of w, want the first lease's 1", delivered.Load())
	}
}
