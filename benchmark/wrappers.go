package main

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"surw/internal/obs"
	"surw/internal/remote"
	"surw/internal/runner"
	"surw/internal/sched"
)

// The wrappers below sit on the program's public interfaces and measure a
// layer from outside. Each forwards every call unchanged; the
// non-perturbation tests hold them to that.

// algTimer accumulates the time an algorithm spends deciding.
type algTimer struct {
	ns        time.Duration // inside Begin/Next/NextIndex/Observe/ObserveSpawn
	calls     int           // timed calls
	clock     float64       // ns of the above that were the clock reads themselves; the ladder fills it
	decisions int           // Next + NextIndex calls
}

// timedAlg times every call into a sched.Algorithm. wrapAlgorithm picks
// the variant that satisfies exactly the optional interfaces the wrapped
// algorithm does, so the engine keeps whichever fast paths it would have
// taken.
type timedAlg struct {
	inner sched.Algorithm
	t     *algTimer
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) Begin(info *sched.ProgramInfo, rng *rand.Rand) {
	t0 := time.Now()
	a.inner.Begin(info, rng)
	a.t.ns += time.Since(t0)
	a.t.calls++
}

func (a *timedAlg) Next(st *sched.State) sched.ThreadID {
	t0 := time.Now()
	tid := a.inner.Next(st)
	a.t.ns += time.Since(t0)
	a.t.calls++
	a.t.decisions++
	return tid
}

func (a *timedAlg) Observe(ev sched.Event, st *sched.State) {
	t0 := time.Now()
	a.inner.Observe(ev, st)
	a.t.ns += time.Since(t0)
	a.t.calls++
}

// indexPart forwards sched.IndexChooser, and sched.SourceChooser when the
// wrapped algorithm has it (BeginSource only hands over a source, so a
// wrapper that accepts and drops it changes nothing).
type indexPart struct {
	idx sched.IndexChooser
	src sched.SourceChooser // nil when the algorithm has none
	t   *algTimer
}

func (p *indexPart) NextIndex(n int) int {
	t0 := time.Now()
	i := p.idx.NextIndex(n)
	p.t.ns += time.Since(t0)
	p.t.calls++
	p.t.decisions++
	return i
}

func (p *indexPart) BeginSource(src rand.Source) {
	if p.src != nil {
		p.src.BeginSource(src)
	}
}

type spawnPart struct {
	so sched.SpawnObserver
	t  *algTimer
}

func (p *spawnPart) ObserveSpawn(parent, child sched.ThreadID, st *sched.State) {
	t0 := time.Now()
	p.so.ObserveSpawn(parent, child, st)
	p.t.ns += time.Since(t0)
	p.t.calls++
}

type timedAlgIndex struct {
	timedAlg
	indexPart
}

type timedAlgSpawn struct {
	timedAlg
	spawnPart
}

type timedAlgIndexSpawn struct {
	timedAlg
	indexPart
	spawnPart
}

func wrapAlgorithm(inner sched.Algorithm, t *algTimer) sched.Algorithm {
	base := timedAlg{inner: inner, t: t}
	idx, hasIdx := inner.(sched.IndexChooser)
	so, hasSpawn := inner.(sched.SpawnObserver)
	ip := indexPart{idx: idx, t: t}
	ip.src, _ = inner.(sched.SourceChooser)
	sp := spawnPart{so: so, t: t}
	switch {
	case hasIdx && hasSpawn:
		return &timedAlgIndexSpawn{base, ip, sp}
	case hasIdx:
		return &timedAlgIndex{base, ip}
	case hasSpawn:
		return &timedAlgSpawn{base, sp}
	}
	return &base
}

// clockCost is what a time.Now/time.Since pair reads when it brackets
// nothing: the part of every timed call above that is the clock's own.
func clockCost() (ns float64) {
	const n = 5000
	var empty time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		empty += time.Since(t0)
	}
	return float64(empty) / n
}

// spanStore wraps a runner.SessionStore: it counts calls and — when a span
// log is attached — records a span per call plus one per session from its
// Lookup to its Store. With a nil inner store it is a pure pass-through
// (every Lookup misses, Store returns its argument), so workloads that run
// without a store still get session spans in traced passes without gaining
// a persistence layer.
type spanStore struct {
	inner runner.SessionStore
	log   *obs.SpanLog
	// cell is the span new sessions are parented under; the harness sets
	// it before each entry-point call.
	cell obs.SpanContext
	// inHandler marks a store owned by a coordinator: its calls come from
	// request handlers, so no Lookup→Store session spans are synthesised
	// and adoptStoreCalls later hangs each call under its handler.
	inHandler bool

	lookups, appends atomic.Int64

	lanes lanes
	mu    sync.Mutex
	open  map[runner.SessionKey]*openSession
}

type openSession struct {
	span obs.OpenSpan
	lane int
}

func newSpanStore(inner runner.SessionStore, log *obs.SpanLog) *spanStore {
	return &spanStore{inner: inner, log: log, open: make(map[runner.SessionKey]*openSession)}
}

// session returns the open session span of k, opening one when asked to;
// nil when there is none (untraced, or a coordinator's store).
func (s *spanStore) session(k runner.SessionKey, opening bool) *openSession {
	if s.log == nil || s.inHandler {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ses := s.open[k]
	if ses == nil && opening {
		ses = &openSession{span: s.log.Start(s.cell, kindSession), lane: s.lanes.acquire()}
		ses.span.Span.Track = laneTrack("session lane", ses.lane)
		ses.span.Span.Target, ses.span.Span.Alg, ses.span.Span.Session = k.Target, k.Algorithm, k.Session+1
		s.open[k] = ses
	}
	return ses
}

// call opens the span of one store call: under its session when there is
// one, else under the cell.
func (s *spanStore) call(kind string, ses *openSession) obs.OpenSpan {
	if ses == nil {
		return s.log.Start(s.cell, kind)
	}
	o := s.log.Start(ses.span.Context(), kind)
	o.Span.Track = ses.span.Span.Track
	return o
}

func (s *spanStore) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	o := s.call(kindLookup, s.session(k, true))
	var sess *runner.Session
	var ok bool
	if s.inner != nil {
		sess, ok = s.inner.Lookup(k)
	}
	s.lookups.Add(1)
	o.End()
	if ok {
		s.closeSession(k)
	}
	return sess, ok
}

func (s *spanStore) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	o := s.call(kindAppend, s.session(k, false))
	out, err := sess, error(nil)
	if s.inner != nil {
		out, err = s.inner.Store(k, sess)
	}
	s.appends.Add(1)
	o.End()
	s.closeSession(k)
	return out, err
}

func (s *spanStore) closeSession(k runner.SessionKey) {
	s.mu.Lock()
	ses := s.open[k]
	delete(s.open, k)
	s.mu.Unlock()
	if ses != nil {
		ses.span.End()
		s.lanes.release(ses.lane)
	}
}

// unclosed counts sessions that were looked up and never stored.
func (s *spanStore) unclosed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// CellDone forwards runner.BatchObserver so a wrapped campaign.Store still
// hears about completed cells.
func (s *spanStore) CellDone(target, alg string, limit int, seed int64, res *runner.Result) {
	if bo, ok := s.inner.(runner.BatchObserver); ok {
		bo.CellDone(target, alg, limit, seed, res)
	}
}

// rpcTimes collects per-endpoint durations from a transport or a handler.
type rpcTimes struct {
	mu            sync.Mutex
	lease, result []float64 // ns
}

func (r *rpcTimes) observe(path string, d time.Duration) {
	r.mu.Lock()
	switch path {
	case remote.PathLease:
		r.lease = append(r.lease, float64(d))
	case remote.PathResult:
		r.result = append(r.result, float64(d))
	}
	r.mu.Unlock()
}

// timedTransport wraps one worker's http.RoundTripper. Besides timing each
// round trip it derives the worker's session spans: with one session per
// lease, the worker executes from the end of a lease round trip to the
// start of the next result round trip. A traced round trip carries its
// span to the coordinator in the traceparent header, which an untraced
// coordinator ignores.
type timedTransport struct {
	base   http.RoundTripper
	log    *obs.SpanLog
	parent obs.SpanContext
	worker string
	times  *rpcTimes

	mu       sync.Mutex
	leasedAt time.Time // end of the latest lease round trip not yet followed by a result
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	start := time.Now()
	if path == remote.PathResult {
		t.mu.Lock()
		leasedAt := t.leasedAt
		t.leasedAt = time.Time{}
		t.mu.Unlock()
		if !leasedAt.IsZero() && t.log != nil {
			t.log.Add(obs.Span{Trace: t.parent.Trace, Parent: t.parent.Span, Name: kindSession, Track: t.worker,
				Worker: t.worker, Start: leasedAt.UnixNano(), Dur: int64(start.Sub(leasedAt))})
		}
	}
	o := t.log.Start(t.parent, kindRTT)
	if o.Active() {
		o.Span.Track, o.Span.Worker, o.Span.Target = t.worker, t.worker, path
		req = req.Clone(req.Context())
		req.Header.Set(obs.TraceparentHeader, o.Context().Traceparent())
	}
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	o.End()
	t.times.observe(path, end.Sub(start))
	if path == remote.PathLease && err == nil {
		t.mu.Lock()
		t.leasedAt = end
		t.mu.Unlock()
	}
	return resp, err
}

// timedHandler wraps the coordinator's http.Handler; a handler span's
// parent is the round trip named by the request's traceparent header.
type timedHandler struct {
	next  http.Handler
	log   *obs.SpanLog
	times *rpcTimes
	lanes lanes
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var o obs.OpenSpan
	lane := -1
	if h.log != nil {
		parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		o = h.log.Start(parent, kindHandler)
		lane = h.lanes.acquire()
		o.Span.Track, o.Span.Target = laneTrack("coordinator lane", lane), r.URL.Path
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.times.observe(r.URL.Path, time.Since(t0))
	if lane >= 0 {
		o.End()
		h.lanes.release(lane)
	}
}
