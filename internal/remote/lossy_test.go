package remote

// Drains over a lossy network: the first pieces of ROADMAP item 6.2's chaos
// harness. Lost and repeated polls and submissions are the net under the
// protocol change that made a submission's reply carry the next lease — a
// reply lost in flight then carries a lease away with it; lost and repeated
// heartbeats let leases lapse under workers that are still running them.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/runner"
)

// lossy is a transport under workers that loses and repeats requests,
// recognised by their bodies rather than their paths. A poll is a request
// with no lease_id: every worker's first poll is sent twice (the worker reads
// the second reply), and the first poll of the second worker to poll has its
// reply lost as well (the coordinator has granted it twice over, and the
// worker sees an error and polls again). A submission is a request with
// records: counted across every worker, the 7th, 14th, … reaches the
// coordinator and its reply is lost (the worker submits again), and the
// 11th, 22nd, … is sent twice. Other requests pass untouched.
type lossy struct {
	base  http.RoundTripper
	mu    sync.Mutex
	n     int            // submissions
	polls map[string]int // polls, by worker
	lost  bool           // a poll's reply was lost
}

var errReplyLost = errors.New("lossy: reply lost")

func (l *lossy) RoundTrip(req *http.Request) (*http.Response, error) {
	var body struct {
		Worker  string          `json:"worker"`
		LeaseID string          `json:"lease_id"`
		Records json.RawMessage `json:"records"`
	}
	if req.GetBody != nil {
		if err := readJSON(req, &body); err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	var double, lose bool
	switch {
	case req.GetBody == nil:
	case body.LeaseID == "":
		if l.polls == nil {
			l.polls = make(map[string]int)
		}
		l.polls[body.Worker]++
		double = l.polls[body.Worker] == 1
		lose = double && len(l.polls) == 2
		l.lost = l.lost || lose
	case body.Records != nil:
		l.n++
		double, lose = l.n%11 == 0, l.n%7 == 0
	}
	l.mu.Unlock()
	if double {
		first := req.Clone(req.Context())
		var err error
		if first.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
		if err := discard(l.base.RoundTrip(first)); err != nil {
			return nil, err
		}
	}
	resp, err := l.base.RoundTrip(req)
	if lose {
		if err := discard(resp, err); err != nil {
			return nil, err
		}
		return nil, errReplyLost
	}
	return resp, err
}

// readJSON decodes a copy of req's body into v.
func readJSON(req *http.Request, v any) error {
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

// discard reads a reply to its end and closes it.
func discard(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// TestLossyTransportDrain drains a plan through two workers whose polls and
// submissions are lost and repeated: the store must come out as a local
// run's, and no lease may be left to wait out its TTL — every lease a lost
// or superseded reply carried must be back in the queue at once. The TTL is
// a minute and the drain must end well inside it.
func TestLossyTransportDrain(t *testing.T) {
	const ttl = time.Minute
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := NewCoordinator(store, experiments.SCTPlan(sc), CoordinatorOptions{LeaseTTL: ttl, BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()
	tr := &lossy{base: http.DefaultTransport}
	ctx, cancel := context.WithTimeout(context.Background(), ttl/4)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w0", "w1"} {
		w := newTestWorker(name, srv.URL)
		w.Client = &http.Client{Transport: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
	if tr.n < 11 {
		t.Fatalf("%d submissions: the 7th and 11th never came", tr.n)
	}
	if len(tr.polls) != 2 || !tr.lost {
		t.Fatalf("polls by worker %v, a poll's reply lost: %v", tr.polls, tr.lost)
	}
	if rs := c.Status(); !c.Done() || rs.LeaseExpiries != 0 {
		t.Fatalf("done %v, %d lease expiries: a lease was stranded", c.Done(), rs.LeaseExpiries)
	}
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the lossy drain differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
}

// firstBeats tells a lease's first heartbeat from its later ones, counted
// across every worker: beat has, by lease ID, a channel closed at the
// lease's first heartbeat, and n counts those.
type firstBeats struct {
	mu     sync.Mutex
	n      int
	beaten map[string]chan struct{}
}

// beat returns the channel closed at the lease's first heartbeat.
func (f *firstBeats) beat(lease string) chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.beatLocked(lease)
}

// beatLocked is beat with f.mu held.
func (f *firstBeats) beatLocked(lease string) chan struct{} {
	if f.beaten == nil {
		f.beaten = make(map[string]chan struct{})
	}
	ch := f.beaten[lease]
	if ch == nil {
		ch = make(chan struct{})
		f.beaten[lease] = ch
	}
	return ch
}

// first reports whether this is the lease's first heartbeat and, if so,
// its number among the first heartbeats, from 1. Call it with f.mu held.
func (f *firstBeats) first(lease string) (int, bool) {
	ch := f.beatLocked(lease)
	select {
	case <-ch:
		return 0, false
	default:
		close(ch)
		f.n++
		return f.n, true
	}
}

// beatOf reads the worker and the lease of a heartbeat request — the lease
// "" for a leave-taking — and reports whether req is one.
func beatOf(req *http.Request) (worker, lease string, ok bool) {
	var body struct {
		Worker  string `json:"worker"`
		LeaseID string `json:"lease_id"`
	}
	if req.URL.Path != PathHeartbeat || readJSON(req, &body) != nil {
		return "", "", false
	}
	return body.Worker, body.LeaseID, true
}

// flakyBeats is a transport under workers that loses and repeats the
// heartbeats of leases. Of the leases' first heartbeats, counted across
// every worker, the 1st, 4th, 7th, … is sent twice, and the 3rd, 6th, … is
// lost before it reaches the coordinator — whose clock then moves a TTL on,
// so that the lease lapses under the worker still running it and is
// requeued at the coordinator's next request. A lease's later heartbeats
// are all sent twice; other requests pass untouched.
type flakyBeats struct {
	firstBeats
	base          http.RoundTripper
	clk           *clock
	ttl           time.Duration
	lost, doubled int
}

func (f *flakyBeats) RoundTrip(req *http.Request) (*http.Response, error) {
	_, lease, ok := beatOf(req)
	if !ok || lease == "" {
		return f.base.RoundTrip(req)
	}
	f.mu.Lock()
	lose, double := false, true
	if n, first := f.first(lease); first {
		lose, double = n%3 == 0, n%3 == 1
	}
	if lose {
		f.lost++
		f.clk.advance(f.ttl + time.Nanosecond)
	}
	if double {
		f.doubled++
	}
	f.mu.Unlock()
	if lose {
		return nil, errReplyLost
	}
	if double {
		first := req.Clone(req.Context())
		var err error
		if first.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
		if err := discard(f.base.RoundTrip(first)); err != nil {
			return nil, err
		}
	}
	return f.base.RoundTrip(req)
}

// lateBeats is a transport under workers that holds heartbeats past the
// TTL: of the leases' first heartbeats, every other one (the 2nd, 4th, …)
// is held while the coordinator's clock moves a TTL on, and only then
// delivered, to a coordinator on which its lease has lapsed. answered
// counts those the coordinator answered — a worker's run may end with one
// in flight, cancelled — and gone the ones it answered 410. Other requests
// pass untouched.
type lateBeats struct {
	firstBeats
	base           http.RoundTripper
	clk            *clock
	ttl            time.Duration
	answered, gone int
}

func (l *lateBeats) RoundTrip(req *http.Request) (*http.Response, error) {
	_, lease, ok := beatOf(req)
	if !ok || lease == "" {
		return l.base.RoundTrip(req)
	}
	l.mu.Lock()
	n, first := l.first(lease)
	hold := first && n%2 == 0
	if hold {
		l.clk.advance(l.ttl + time.Nanosecond)
	}
	l.mu.Unlock()
	resp, err := l.base.RoundTrip(req)
	if hold && err == nil {
		l.mu.Lock()
		l.answered++
		if resp.StatusCode == http.StatusGone {
			l.gone++
		}
		l.mu.Unlock()
	}
	return resp, err
}

// swappedBeats is a transport under workers that delivers two heartbeats of
// one worker out of order: of the leases' first heartbeats, every other one
// (the 1st, 3rd, …) whose worker has none held already is answered at once
// with a 204 and held back, and reaches the coordinator only after that
// worker's next heartbeat — a later beat of the lease, the first of a later
// lease, or its leave-taking — has. swapped counts the held heartbeats
// delivered. Other requests pass untouched.
type swappedBeats struct {
	firstBeats
	base    http.RoundTripper
	held    map[string]*http.Request // by worker
	swapped int
}

func (s *swappedBeats) RoundTrip(req *http.Request) (*http.Response, error) {
	worker, lease, ok := beatOf(req)
	if !ok {
		return s.base.RoundTrip(req)
	}
	s.mu.Lock()
	prev := s.held[worker]
	delete(s.held, worker)
	hold := false
	if lease != "" {
		n, first := s.first(lease)
		hold = first && n%2 == 1 && prev == nil
	}
	if hold {
		later := req.Clone(context.WithoutCancel(req.Context()))
		var err error
		if later.Body, err = req.GetBody(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if s.held == nil {
			s.held = make(map[string]*http.Request)
		}
		s.held[worker] = later
	}
	s.mu.Unlock()
	var resp *http.Response
	var err error
	if hold {
		resp = &http.Response{StatusCode: http.StatusNoContent, Status: "204 No Content", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Body: http.NoBody, Request: req}
	} else {
		resp, err = s.base.RoundTrip(req)
	}
	if prev != nil {
		if err := discard(s.base.RoundTrip(prev)); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.swapped++
		s.mu.Unlock()
	}
	return resp, err
}

// heartbeatDrain drains sctScale's plan through two workers over tr, on a
// coordinator whose clock is clk and whose leases last ttl, and returns the
// coordinator's status: the campaign must finish, every plan key must be
// stored once, and the store must come out as a local run's. Each lease is
// held at its start until its first heartbeat has gone out (the worker's
// progress line is the hook, beat the transport's channel), so every lease
// is beaten at least once however fast its sessions run; how many leases
// lapse, and how many sessions run twice, is left to the race.
func heartbeatDrain(t *testing.T, clk *clock, ttl time.Duration, tr http.RoundTripper, beat func(lease string) chan struct{}) *campaign.RemoteStatus {
	t.Helper()
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	plan := experiments.SCTPlan(sc)
	c := NewCoordinator(store, plan, CoordinatorOptions{LeaseTTL: ttl, BatchSize: 2})
	c.now = clk.now
	srv := httptest.NewServer(c)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w0", "w1"} {
		w := newTestWorker(name, srv.URL)
		w.Client = &http.Client{Transport: tr}
		w.Logf = func(format string, args ...any) {
			if !strings.HasPrefix(format, "lease %s: ") {
				return
			}
			select {
			case <-beat(args[0].(string)):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
	rs := c.Status()
	if !c.Done() {
		t.Fatal("the drain ended with the campaign not done")
	}

	// Every plan key stored once: the file holds each of them on one line.
	runs, err := os.ReadFile(filepath.Join(store.Dir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(runs, []byte("\n")), []byte("\n"))
	stored := make(map[runner.SessionKey]int)
	for _, line := range lines {
		k, _, err := campaign.ParseRecord(line, nil)
		if err != nil {
			t.Fatal(err)
		}
		stored[k]++
	}
	for _, k := range plan {
		if stored[k] != 1 {
			t.Errorf("plan key %+v stored %d times, want once", k, stored[k])
		}
	}
	if len(lines) != len(plan) {
		t.Errorf("runs.jsonl holds %d records, want the plan's %d", len(lines), len(plan))
	}

	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the drain differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
	return rs
}

// TestHeartbeatChaosDrain drains a plan through two workers whose
// heartbeats are lost and repeated, with every lost heartbeat letting the
// leases lapse on the coordinator's clock: a lost first heartbeat always
// lapses a lease still held.
func TestHeartbeatChaosDrain(t *testing.T) {
	const ttl = 30 * time.Millisecond // a heartbeat every 10 ms of wall clock
	clk := &clock{t: time.Unix(1_000_000, 0)}
	tr := &flakyBeats{base: http.DefaultTransport, clk: clk, ttl: ttl}
	rs := heartbeatDrain(t, clk, ttl, tr, tr.beat)
	if tr.lost == 0 || tr.doubled == 0 {
		t.Fatalf("%d heartbeats lost, %d sent twice: the chaos never happened", tr.lost, tr.doubled)
	}
	if rs.LeaseExpiries == 0 {
		t.Fatal("no lease expired: want the leases of lost heartbeats lapsed")
	}
	t.Logf("%d leases beaten: %d heartbeats lost, %d sent twice; %d lease expiries, %d duplicate records",
		tr.n, tr.lost, tr.doubled, rs.LeaseExpiries, rs.DuplicateResults)
}

// TestHeartbeatLateDrain: heartbeats held past the TTL reach the
// coordinator after their leases have lapsed. Every one answered is
// answered 410, each lapses at least its own lease, and the drain still finishes
// with every plan key stored once.
func TestHeartbeatLateDrain(t *testing.T) {
	const ttl = 30 * time.Millisecond
	clk := &clock{t: time.Unix(1_000_000, 0)}
	tr := &lateBeats{base: http.DefaultTransport, clk: clk, ttl: ttl}
	rs := heartbeatDrain(t, clk, ttl, tr, tr.beat)
	if tr.answered == 0 || tr.gone != tr.answered {
		t.Fatalf("%d heartbeats held past the TTL answered, %d of them 410: want some, and every one gone", tr.answered, tr.gone)
	}
	if rs.LeaseExpiries < int64(tr.gone) {
		t.Fatalf("%d lease expiries for %d heartbeats held past their leases' TTL", rs.LeaseExpiries, tr.gone)
	}
	t.Logf("%d leases beaten: %d heartbeats held past the TTL and answered; %d lease expiries, %d duplicate records",
		tr.n, tr.answered, rs.LeaseExpiries, rs.DuplicateResults)
}

// TestHeartbeatSwappedDrain: a worker's heartbeat reaches the coordinator
// after the worker's next one — a stale renewal of a live lease, or a beat
// of a lease already ended. The coordinator's clock never moves, so no
// lease may lapse, and the drain finishes with every plan key stored once.
func TestHeartbeatSwappedDrain(t *testing.T) {
	const ttl = 30 * time.Millisecond
	clk := &clock{t: time.Unix(1_000_000, 0)}
	tr := &swappedBeats{base: http.DefaultTransport}
	rs := heartbeatDrain(t, clk, ttl, tr, tr.beat)
	if tr.swapped == 0 || len(tr.held) != 0 {
		t.Fatalf("%d heartbeats delivered out of order, %d still held: want some swapped and none left", tr.swapped, len(tr.held))
	}
	if rs.LeaseExpiries != 0 {
		t.Fatalf("%d lease expiries on a clock that never moved", rs.LeaseExpiries)
	}
	t.Logf("%d leases beaten: %d heartbeats delivered out of order; %d duplicate records", tr.n, tr.swapped, rs.DuplicateResults)
}
