package remote

// Wire-protocol and failure-mode tests for the distributed-campaign
// subsystem, all over httptest loopback servers. The capstone,
// TestDistributedAggregatesAreByteIdentical, pins the tentpole invariant:
// a two-worker distributed campaign writes the same aggregate bytes as a
// single-process run — distribution is an execution-order change only.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// memStore is an in-memory runner.SessionStore for pure protocol tests.
type memStore struct {
	mu sync.Mutex
	m  map[runner.SessionKey]*runner.Session
}

func newMemStore() *memStore { return &memStore{m: make(map[runner.SessionKey]*runner.Session)} }

func (s *memStore) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.m[k]
	return sess, ok
}

func (s *memStore) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = sess
	return sess, nil
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// clock is an injectable coordinator clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// syntheticPlan builds n same-cell keys (no real target needed).
func syntheticPlan(n int) []runner.SessionKey {
	plan := make([]runner.SessionKey, n)
	for i := range plan {
		plan[i] = runner.SessionKey{CellKey: runner.CellKey{Target: "t/x", Algorithm: "RW", Limit: 100, Seed: 1}, Session: i}
	}
	return plan
}

// postJSON sends one protocol request and decodes the response when out is
// non-nil, returning the HTTP status.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func leaseFor(t *testing.T, url, worker string) *LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if code := postJSON(t, url+PathLease, LeaseRequest{Worker: worker}, &resp); code != 200 {
		t.Fatalf("lease: status %d", code)
	}
	return &resp
}

func TestLeaseExpiryAndReassignment(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(4), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 4})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	if la.Lease == nil || len(la.Lease.Sessions) != 4 {
		t.Fatalf("worker a got %+v, want a 4-session lease", la)
	}
	// While a holds the only batch, b polls empty-handed.
	if lb := leaseFor(t, srv.URL, "b"); lb.Lease != nil || lb.Done || lb.RetryMillis <= 0 {
		t.Fatalf("worker b got %+v, want a retry hint", lb)
	}
	hb := HeartbeatRequest{Worker: "a", LeaseID: la.Lease.ID}
	if code := postJSON(t, srv.URL+PathHeartbeat, hb, nil); code != http.StatusNoContent {
		t.Fatalf("live heartbeat: status %d, want 204", code)
	}

	// The heartbeat extended the lease: one TTL past the *grant* is still
	// alive, then silence kills it.
	clk.advance(45 * time.Second)
	if code := postJSON(t, srv.URL+PathHeartbeat, hb, nil); code != http.StatusNoContent {
		t.Fatalf("heartbeat after 45s of a refreshed lease: status %d, want 204", code)
	}
	clk.advance(2 * time.Minute)
	if code := postJSON(t, srv.URL+PathHeartbeat, hb, nil); code != http.StatusGone {
		t.Fatalf("heartbeat on expired lease: status %d, want 410", code)
	}

	// The expired batch is re-leased to b, sessions intact.
	lb := leaseFor(t, srv.URL, "b")
	if lb.Lease == nil || len(lb.Lease.Sessions) != 4 {
		t.Fatalf("reassignment: worker b got %+v", lb)
	}
	rs := c.Status()
	if rs.LeaseExpiries != 1 || rs.InFlightLeases != 1 {
		t.Fatalf("status after expiry: %+v, want 1 expiry, 1 in-flight", rs)
	}
}

// A worker holds one lease. A submission whose reply — the next lease — is
// lost is submitted again: its records come back duplicates, the retry is
// granted a lease, and the lease the lost reply carried is requeued at once
// instead of waiting out its TTL. The plan then drains with the clock
// standing still.
func TestRetriedSubmissionHoldsOneLease(t *testing.T) {
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(4), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 1})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	submit := func(l *Lease) (rr ResultResponse) {
		t.Helper()
		req := ResultRequest{Worker: "a", LeaseID: l.ID, Records: sessionRecordsFor(l)}
		if code := postJSON(t, srv.URL+PathResult, req, &rr); code != 200 {
			t.Fatalf("submit: status %d", code)
		}
		return rr
	}
	lost := submit(la.Lease)
	retried := submit(la.Lease)
	if lost.Accepted != 1 || lost.Lease == nil || retried.Duplicates != 1 || retried.Lease == nil || retried.Lease.ID == lost.Lease.ID {
		t.Fatalf("submission answered %+v, its retry %+v: want the record stored once and a new lease each time", lost, retried)
	}
	rs := c.Status()
	if rs.InFlightLeases != 1 || rs.LeaseExpiries != 0 || rs.Workers[0].Leases != 1 || rs.PendingBatches != 2 {
		t.Fatalf("after the retry: %d in flight (a holds %d), %d pending, %d expiries; want 1, 1, 2, 0",
			rs.InFlightLeases, rs.Workers[0].Leases, rs.PendingBatches, rs.LeaseExpiries)
	}
	if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{Worker: "a", LeaseID: lost.Lease.ID}, nil); code != http.StatusGone {
		t.Fatalf("heartbeat for the lost reply's lease: status %d, want 410", code)
	}
	for next := retried; !next.Done; {
		if next.Lease == nil {
			t.Fatalf("reply %+v before the plan drained", next)
		}
		next = submit(next.Lease)
	}
	if rs := c.Status(); st.len() != 4 || rs.LeaseExpiries != 0 || rs.InFlightLeases != 0 {
		t.Fatalf("%d stored, %d expiries, %d in flight; want 4, 0, 0", st.len(), rs.LeaseExpiries, rs.InFlightLeases)
	}
}

// A worker cancelled mid-batch gives its lease back with its leave-taking:
// the batch is pending again before any TTL passes, and a submission of the
// worker's that was still on its way is stored but granted nothing.
func TestLeaveTakingReturnsTheLease(t *testing.T) {
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(newMemStore(), syntheticPlan(2), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 2})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := runner.Target{Name: "t/x", Prog: func(*sched.Thread) { cancel() }}
	w := newTestWorker("a", srv.URL)
	w.Resolve = func(string) (runner.Target, bool) { return stop, true }
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled worker: %v", err)
	}
	rs := c.Status()
	if rs.InFlightLeases != 0 || rs.PendingBatches != 1 || rs.LeaseExpiries != 0 || !c.AllWorkersNotified() {
		t.Fatalf("after a's leave-taking: %d in flight, %d pending, %d expiries, notified %v; want 0, 1, 0, true",
			rs.InFlightLeases, rs.PendingBatches, rs.LeaseExpiries, c.AllWorkersNotified())
	}

	late := &Lease{CellKey: runner.CellKey{Target: "t/x", Algorithm: "RW", Limit: 100, Seed: 1}, Sessions: []int{0}}
	var rr ResultResponse
	if code := postJSON(t, srv.URL+PathResult, ResultRequest{Worker: "a", Records: sessionRecordsFor(late)}, &rr); code != 200 {
		t.Fatalf("late submission: status %d", code)
	}
	if rs := c.Status(); rr.Accepted != 1 || rr.Lease != nil || rs.InFlightLeases != 0 {
		t.Fatalf("late submission answered %+v with %d leases in flight: want it stored and nothing granted", rr, rs.InFlightLeases)
	}
}

// A poll is a worker's name and nothing else: a /v1/lease body carrying a
// submission's members is refused, and changes nothing.
func TestPollRefusesSubmissionMembers(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()
	l := leaseFor(t, srv.URL, "a").Lease
	for _, req := range []ResultRequest{
		{Worker: "a", LeaseID: l.ID},
		{Worker: "a", BusyMillis: 1},
		{Worker: "a", Records: sessionRecordsFor(l)},
		{Worker: "a", Spans: goldenSpans()},
	} {
		if code := postJSON(t, srv.URL+PathLease, req, nil); code != http.StatusBadRequest {
			t.Errorf("poll with %+v: status %d, want 400", req, code)
		}
	}
	if rs := c.Status(); st.len() != 0 || rs.InFlightLeases != 1 || rs.PendingBatches != 1 {
		t.Fatalf("after refused polls: %d stored, %d in flight, %d pending; want 0, 1, 1", st.len(), rs.InFlightLeases, rs.PendingBatches)
	}
}

// Worker names must be unique among running workers (Worker.Name). Two
// workers of one name take each other's lease at every grant, and one's
// leave-taking withholds the other's next grant until it polls again: what
// that costs is work run twice, never a wrong record or a stranded lease.
func TestSharedWorkerNameStillDrains(t *testing.T) {
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := NewCoordinator(store, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 1, RetryAfter: 10 * time.Millisecond})
	srv := httptest.NewServer(c)
	defer srv.Close()
	drain(t, newTestWorker("twin", srv.URL), newTestWorker("twin", srv.URL))
	rs := c.Status()
	if !c.Done() || rs.LeaseExpiries != 0 || rs.InFlightLeases != 0 || len(rs.Workers) != 1 {
		t.Fatalf("done %v, %d expiries, %d in flight, %d workers listed; want true, 0, 0, 1", c.Done(), rs.LeaseExpiries, rs.InFlightLeases, len(rs.Workers))
	}
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the same-named fleet differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
	t.Logf("%d duplicate records", rs.DuplicateResults)
}

// sessionRecordsFor fabricates plausible records for a synthetic lease.
func sessionRecordsFor(l *Lease) []record {
	recs := make([]record, len(l.Sessions))
	for i, s := range l.Sessions {
		k := runner.SessionKey{CellKey: l.CellKey, Session: s}
		recs[i] = record{Key: k, Session: &runner.Session{FirstBug: -1, Schedules: l.Limit, Bugs: map[string]int{}}}
	}
	return recs
}

func TestDuplicateResultsAreDropped(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(3), CoordinatorOptions{BatchSize: 8})
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	req := ResultRequest{Worker: "a", LeaseID: la.Lease.ID, Records: sessionRecordsFor(la.Lease)}
	var first, second ResultResponse
	if code := postJSON(t, srv.URL+PathResult, req, &first); code != 200 {
		t.Fatalf("submit: status %d", code)
	}
	if first.Accepted != 3 || first.Duplicates != 0 {
		t.Fatalf("first submission: %+v, want 3 accepted", first)
	}
	// The retry of the same submission (lost response, lease churn, a
	// second worker racing a requeued batch) is dropped whole.
	if code := postJSON(t, srv.URL+PathResult, req, &second); code != 200 {
		t.Fatalf("resubmit: status %d", code)
	}
	if second.Accepted != 0 || second.Duplicates != 3 {
		t.Fatalf("duplicate submission: %+v, want 3 duplicates", second)
	}
	if st.len() != 3 {
		t.Fatalf("store holds %d records, want 3", st.len())
	}
	if !c.Done() {
		t.Fatal("coordinator not done after full plan stored")
	}
	if rs := c.Status(); rs.DuplicateResults != 3 || rs.SessionsDone != 3 {
		t.Fatalf("status: %+v", rs)
	}
	// With the plan exhausted, the next poll says so.
	if lb := leaseFor(t, srv.URL, "b"); !lb.Done {
		t.Fatalf("lease after completion: %+v, want done", lb)
	}
}

func TestResultOutsidePlanRejected(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{})
	srv := httptest.NewServer(c)
	defer srv.Close()

	stray := record{
		Key:     runner.SessionKey{CellKey: runner.CellKey{Target: "not/planned", Algorithm: "RW", Limit: 5}, Session: 0},
		Session: &runner.Session{FirstBug: -1, Schedules: 5, Bugs: map[string]int{}}}
	code := postJSON(t, srv.URL+PathResult, ResultRequest{Worker: "a", Records: []record{stray}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("stray submission: status %d, want 400", code)
	}
	// A planned cell, a session number the plan does not name.
	k := syntheticPlan(3)[2]
	stray = record{Key: k, Session: &runner.Session{FirstBug: -1, Schedules: 5, Bugs: map[string]int{}}}
	if code := postJSON(t, srv.URL+PathResult, ResultRequest{Worker: "a", Records: []record{stray}}, nil); code != http.StatusBadRequest {
		t.Fatalf("stray session of a planned cell: status %d, want 400", code)
	}
	if st.len() != 0 {
		t.Fatal("stray record reached the store")
	}
}

// TestRecycledLeasesAreHeldOnce churns leases through every way one ends —
// completed, requeued by its worker's next poll, expired past the TTL —
// until over a thousand grants have reused an ended lease, with four
// workers at once (run it under -race), and checks after every request
// that no lease is held by two workers, none is both held and free, and
// c.leases and the workers' ws.lease name the same leases. Then the plan
// drains: every key stored once.
func TestRecycledLeasesAreHeldOnce(t *testing.T) {
	const keys, recycledWanted = 400, 1000
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(st, syntheticPlan(keys), CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 1, RetryAfter: time.Millisecond})
	c.now = clk.now

	var checkMu sync.Mutex // the structs seen so far, and how many grants
	structs := make(map[*lease]bool)
	check := func() (recycled int, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		held := make(map[*lease]string)
		for name, ws := range c.workers {
			if ws.lease == nil {
				continue
			}
			if other, dup := held[ws.lease]; dup {
				return 0, fmt.Errorf("lease %s held by %s and %s", ws.lease.id, other, name)
			}
			held[ws.lease] = name
			if c.leases[ws.lease.id] != ws.lease || ws.lease.worker != name {
				return 0, fmt.Errorf("%s holds lease %s (worker %q) that c.leases does not", name, ws.lease.id, ws.lease.worker)
			}
		}
		for id, l := range c.leases {
			if l.id != id || held[l] != l.worker {
				return 0, fmt.Errorf("lease %s (id %s, worker %s) is not its worker's", id, l.id, l.worker)
			}
		}
		for _, l := range c.free {
			if _, ok := held[l]; ok {
				return 0, fmt.Errorf("lease %s is free and held by %s", l.id, held[l])
			}
		}
		checkMu.Lock()
		defer checkMu.Unlock()
		for l := range held {
			structs[l] = true
		}
		return c.seq - len(structs), nil
	}
	call := func(path, body string) (ResultResponse, error) {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var resp ResultResponse
		if rec.Code != http.StatusOK {
			return resp, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return resp, json.Unmarshal(rec.Body.Bytes(), &resp)
	}
	submission := func(name string, l *Lease) string {
		body, err := json.Marshal(ResultRequest{Worker: name, LeaseID: l.ID, BusyMillis: 1, Records: sessionRecordsFor(l)})
		if err != nil {
			panic(err)
		}
		return string(body)
	}

	var churned atomic.Bool
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("w%d", i)
			rng := rand.New(rand.NewSource(int64(i)))
			resp, err := call(PathLease, `{"worker":"`+name+`"}`)
			for err == nil && !resp.Done {
				var recycled int
				if recycled, err = check(); err != nil {
					break
				}
				if recycled >= recycledWanted {
					churned.Store(true)
				}
				switch r := rng.Intn(20); {
				case resp.Lease != nil && (churned.Load() || r < 2):
					resp, err = call(PathResult, submission(name, resp.Lease)) // completed
				case r < 3:
					clk.advance(2 * time.Minute) // every lease expires at the next request
					fallthrough
				default:
					resp, err = call(PathLease, `{"worker":"`+name+`"}`) // the lease held is requeued
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	recycled, err := check()
	if err != nil {
		t.Fatal(err)
	}
	rs := c.Status()
	if !c.Done() || st.len() != keys || recycled < recycledWanted || rs.LeaseExpiries == 0 {
		t.Fatalf("done %v, %d of %d keys stored, %d grants of a recycled lease, %d expiries", c.Done(), st.len(), keys, recycled, rs.LeaseExpiries)
	}
	t.Logf("%d grants, %d lease structs, %d expiries, %d duplicates", c.seq, c.seq-recycled, rs.LeaseExpiries, rs.DuplicateResults)
}

// sctScale is the small two-cell grid the execution tests distribute.
func sctScale() experiments.Scale {
	return experiments.Scale{
		Seed:           11,
		Sessions:       3,
		Limit:          200,
		SafeStackLimit: 200,
		Workers:        2,
		SCTTargets:     []string{"CS/reorder_4", "CS/twostage_20"},
		SCTAlgs:        []string{"SURW", "RW"},
	}
}

func newTestWorker(name, base string) *Worker {
	return &Worker{
		Coordinator: base,
		Name:        name,
		Resolve:     sctbench.ByName,
		Workers:     2,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

func TestWorkerKilledMidBatchIsReassigned(t *testing.T) {
	sc := sctScale()
	st := newMemStore()
	clk := &clock{t: time.Unix(1_000_000, 0)}
	plan := experiments.SCTPlan(sc)
	c := NewCoordinator(st, plan, CoordinatorOptions{LeaseTTL: time.Minute, BatchSize: 3})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()

	// Worker "dead" takes a lease and is killed mid-batch: it never
	// heartbeats, never submits.
	if ld := leaseFor(t, srv.URL, "dead"); ld.Lease == nil {
		t.Fatal("dead worker got no lease")
	}
	clk.advance(2 * time.Minute)

	// A live worker drains the whole plan, the dead worker's batch
	// included.
	if err := newTestWorker("live", srv.URL).Run(context.Background()); err != nil {
		t.Fatalf("live worker: %v", err)
	}
	if !c.Done() {
		t.Fatal("coordinator not done after live worker drained the plan")
	}
	if st.len() != len(plan) {
		t.Fatalf("store holds %d sessions, want %d", st.len(), len(plan))
	}
	rs := c.Status()
	if rs.LeaseExpiries < 1 {
		t.Fatalf("status %+v, want at least one lease expiry", rs)
	}

	// Spot-check determinism: the reassigned sessions match a direct
	// local execution.
	for _, k := range plan[:3] {
		tgt, ok := sctbench.ByName(k.Target)
		if !ok {
			t.Fatalf("target %q missing", k.Target)
		}
		cfg := runner.Config{Limit: k.Limit, Seed: k.Seed, StopAtFirstBug: k.StopAtFirstBug}
		want, err := runner.RunSession(context.Background(), tgt, k.Algorithm, cfg, k.Session)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.Lookup(k)
		if !ok {
			t.Fatalf("session %v missing from store", k)
		}
		if got.FirstBug != want.FirstBug || got.Schedules != want.Schedules {
			t.Fatalf("session %v: distributed %+v, local %+v", k, got, want)
		}
	}
}

// A fleet worker holds warm workers for the target of its current lease
// only: draining sctScale's two targets, it never holds both at once, and
// it did hold the second.
func TestWorkerKeepsOneTargetWarm(t *testing.T) {
	plan := experiments.SCTPlan(sctScale())
	c := NewCoordinator(newMemStore(), plan, CoordinatorOptions{BatchSize: 2})
	srv := httptest.NewServer(c)
	defer srv.Close()
	w := newTestWorker("w", srv.URL)
	held := map[string]bool{}
	most := 0
	w.Logf = func(format string, args ...any) {
		if strings.HasSuffix(format, "duplicate") { // after each lease's submission, on the lease loop
			targets := w.cache.Targets()
			most = max(most, len(targets))
			for _, tgt := range targets {
				held[tgt] = true
			}
		}
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !c.Done() || most != 1 || len(held) != 2 {
		t.Fatalf("done %v; held warm workers for up to %d targets at once, %v over the drain; want 1 at a time, both targets", c.Done(), most, held)
	}
}

func TestCoordinatorRestartMidCampaign(t *testing.T) {
	sc := sctScale()
	plan := experiments.SCTPlan(sc)
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// First incarnation: one batch gets leased, executed, and submitted,
	// then the coordinator "crashes" (server closed, state dropped).
	c1 := NewCoordinator(store, plan, CoordinatorOptions{BatchSize: 2})
	srv1 := httptest.NewServer(c1)
	l1 := leaseFor(t, srv1.URL, "a")
	if l1.Lease == nil {
		t.Fatal("no lease from first coordinator")
	}
	tgt, _ := sctbench.ByName(l1.Lease.Target)
	cfg := runner.Config{Limit: l1.Lease.Limit, Seed: l1.Lease.Seed, StopAtFirstBug: l1.Lease.StopAtFirstBug}
	var recs []record
	for _, s := range l1.Lease.Sessions {
		sess, err := runner.RunSession(context.Background(), tgt, l1.Lease.Algorithm, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{Key: runner.KeyFor(tgt, l1.Lease.Algorithm, cfg, s), Session: sess})
	}
	var rr ResultResponse
	if code := postJSON(t, srv1.URL+PathResult, ResultRequest{Worker: "a", LeaseID: l1.Lease.ID, Records: recs}, &rr); code != 200 {
		t.Fatalf("submit to first coordinator: status %d", code)
	}
	// A second lease is in flight when the coordinator dies.
	l2 := leaseFor(t, srv1.URL, "a")
	if l2.Lease == nil {
		t.Fatal("no second lease")
	}
	srv1.Close()

	// Second incarnation over the same store and plan: the submitted batch
	// is already done, everything else (the in-flight lease included) is
	// pending again.
	c2 := NewCoordinator(store, plan, CoordinatorOptions{BatchSize: 2})
	srv2 := httptest.NewServer(c2)
	defer srv2.Close()
	if rs := c2.Status(); rs.SessionsDone != len(recs) || rs.InFlightLeases != 0 {
		t.Fatalf("restarted coordinator status %+v, want %d done, 0 in flight", rs, len(recs))
	}
	// The old incarnation's lease ID means nothing to the new one: the
	// worker is told to stop heartbeating...
	code := postJSON(t, srv2.URL+PathHeartbeat, HeartbeatRequest{Worker: "a", LeaseID: l2.Lease.ID}, nil)
	if code != http.StatusGone {
		t.Fatalf("stale heartbeat: status %d, want 410", code)
	}
	// ...but a resubmission of already-stored work is still absorbed.
	if code := postJSON(t, srv2.URL+PathResult, ResultRequest{Worker: "a", LeaseID: l1.Lease.ID, Records: recs}, &rr); code != 200 {
		t.Fatalf("resubmit to restarted coordinator: status %d", code)
	}
	if rr.Accepted != 0 || rr.Duplicates != len(recs) || rr.Lease == nil {
		t.Fatalf("resubmission landed as %+v, want all duplicates and the next lease", rr)
	}
	// a goes no further: its leave-taking gives that lease back.
	if code := postJSON(t, srv2.URL+PathHeartbeat, HeartbeatRequest{Worker: "a"}, nil); code != http.StatusNoContent {
		t.Fatalf("a's leave-taking: status %d", code)
	}

	// A worker drains the rest; the campaign completes.
	if err := newTestWorker("b", srv2.URL).Run(context.Background()); err != nil {
		t.Fatalf("worker against restarted coordinator: %v", err)
	}
	if !c2.Done() {
		t.Fatal("restarted coordinator never completed")
	}
	if store.Len() != len(plan) {
		t.Fatalf("store holds %d sessions, want %d", store.Len(), len(plan))
	}
}

func TestDistributedAggregatesAreByteIdentical(t *testing.T) {
	sc := sctScale()

	// Reference: a plain single-process campaign into its own store.
	localStore, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer localStore.Close()
	scLocal := sc
	scLocal.Store = localStore
	experiments.SCTBench(scLocal, nil)
	var localAgg bytes.Buffer
	if err := campaign.WriteAggregates(&localAgg, localStore); err != nil {
		t.Fatal(err)
	}

	// Distributed: the same plan drained by two concurrent loopback
	// workers through the coordinator.
	distStore, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer distStore.Close()
	c := NewCoordinator(distStore, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 2})
	srv := httptest.NewServer(c)
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = newTestWorker(fmt.Sprintf("w%d", i), srv.URL).Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done")
	}
	if h := c.Status().Health; !h.Healthy {
		t.Fatalf("clean drain ends unhealthy: %+v", h)
	}
	var distAgg bytes.Buffer
	if err := campaign.WriteAggregates(&distAgg, distStore); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(localAgg.Bytes(), distAgg.Bytes()) {
		t.Fatalf("distributed aggregates diverged from local run:\nlocal %d bytes, distributed %d bytes",
			localAgg.Len(), distAgg.Len())
	}
}
