package remote

// The worker loop: poll for a lease, then execute, submit and act on the
// reply — a submission's reply is the next lease reply. Workers hold no
// campaign state at all — every batch is fully described by its lease and
// executed through runner's session engine, the one a local batch uses, so
// a worker's records are bit-identical to the sessions a local run would
// have produced. What a worker keeps from lease to lease is set-up: warm
// session workers per target (runner.WorkerCache) and one heartbeat loop.
// Network failures never corrupt anything: polling and submission retry
// with exponential backoff and jitter (riding out coordinator restarts),
// and an abandoned batch simply expires server-side and is re-leased.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"surw/internal/atlas"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/wire"
	"surw/internal/workpool"
)

// Worker executes leases from one coordinator. Configure the exported
// fields, then call Run.
type Worker struct {
	// Coordinator is the base URL, e.g. "http://10.0.0.1:7071".
	Coordinator string
	// Name identifies this worker in leases and dashboards. The coordinator
	// holds one lease per name, so it must be unique among running workers.
	Name string
	// Resolve maps a lease's target name to the local target registry
	// (`surw worker` wires the resolver every subcommand shares). An
	// unresolvable target is a deployment error — a version-skewed worker —
	// and aborts the worker rather than silently stalling the campaign.
	Resolve func(name string) (runner.Target, bool)
	// Workers is the per-batch session parallelism (degree of the local
	// fan-out): 1 is sequential, <= 0 one per CPU (workpool.Normalize).
	Workers int
	// Client is the HTTP client; nil uses a 30s-timeout default.
	Client *http.Client
	// BackoffMin/BackoffMax bound the exponential retry backoff.
	// Defaults 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// Metrics, when non-nil, is attached to every leased batch's
	// runner.Config, aggregating schedule counters and decision histograms
	// for the worker's own /metrics page. Results stay byte-identical and
	// the sessions stay on the batched engine; what it costs is the tracer
	// call per decision, so it is opt-in (`surw worker -metrics-addr`).
	Metrics *obs.Metrics
	// Atlas, when non-nil, accumulates schedule-space cartography and
	// uniformity drift over every leased session this worker executes
	// (`surw worker -atlas`): lock-free atomic counters off the decision hot
	// loop. Its cumulative snapshot ships with the heartbeats, and once more
	// when Run returns, so the coordinator can assemble the fleet atlas.
	// Never perturbs a schedule.
	Atlas *atlas.Atlas
	// Watchdog, when > 0, arms a per-lease self-watchdog: if no session of
	// the lease completes for this long, the worker logs the stall and
	// dumps a goroutine profile to stderr — the "heartbeating but not
	// finishing" failure the coordinator's aging-lease rule sees only from
	// the outside. Off by default.
	Watchdog time.Duration
	// RetainSpans keeps a copy of every span the worker ships, so
	// `surw worker -trace` can write them at exit. Off by default — spans
	// normally leave with their ResultRequest and are dropped.
	RetainSpans bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	rng *rand.Rand

	// lat holds the worker's always-on latency histograms (lease_rpc,
	// session, checkpoint_fork, submit); its cumulative snapshot ships with
	// the heartbeats. Lock-free observes; see obs.LatencySet.
	lat obs.LatencySet
	// For the length of a Run: the warm session workers, and the heartbeat
	// loop's ticker (execute re-arms it) and the ID of the lease it keeps
	// alive — nil between leases, or once the coordinator said it is gone.
	cache   *runner.WorkerCache
	hb      *time.Ticker
	hbLease atomic.Pointer[string]
	// The lease loop's own, for the length of a Run (no other goroutine
	// touches them): its line to the coordinator, the lease in hand, that
	// lease's keys and finished sessions in lease order, and the target the
	// cache keeps warm workers for.
	line     rpc
	lease    Lease
	keys     []runner.SessionKey
	sessions []*runner.Session
	target   string
	// The lease in execution, as the hooks Run binds once read it — runOne,
	// the session body the fan-out calls, and phase, its Config.Phase —
	// written by execute before the fan-out starts: the target and config,
	// the execute span (inert unless the lease is traced) with the span IDs
	// minted for its sessions, and the count of sessions completed, which
	// the watchdog watches.
	tgt      runner.Target
	cfg      runner.Config
	exec     obs.OpenSpan
	sessIDs  []obs.SpanID
	progress atomic.Int64
	runOne   func(i int) (struct{}, error)
	phase    func(session int, phase string, start time.Time, d time.Duration)
	// spans is created lazily on the first traced lease (nil records
	// nothing, costing untraced fleets zero allocations).
	spans *obs.SpanLog

	retainMu sync.Mutex
	retained []obs.Span

	// stalled is the watchdog action; nil means the default (log + dump a
	// goroutine profile to stderr). Overridable for tests.
	stalled func(leaseID string, age time.Duration)
}

// Latencies exposes the worker's cumulative latency snapshot.
func (w *Worker) Latencies() map[string]obs.HistogramWire { return w.lat.Wire() }

// Spans returns the spans retained under RetainSpans, in ship order.
func (w *Worker) Spans() []obs.Span {
	w.retainMu.Lock()
	defer w.retainMu.Unlock()
	return append([]obs.Span(nil), w.retained...)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	w.Client = &http.Client{Timeout: 30 * time.Second}
	return w.Client
}

func (w *Worker) backoffBounds() (time.Duration, time.Duration) {
	lo, hi := w.BackoffMin, w.BackoffMax
	if lo <= 0 {
		lo = 100 * time.Millisecond
	}
	if hi <= 0 {
		hi = 5 * time.Second
	}
	return lo, hi
}

// jittered spreads sleeps over [d/2, d) so a fleet of workers retrying
// against a restarted coordinator doesn't stampede it in lockstep.
func (w *Worker) jittered(d time.Duration) time.Duration {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(w.rng.Int63n(int64(d/2)))
}

// Run executes leases until the coordinator reports the campaign done or
// ctx is cancelled. Transient errors (network, coordinator restarts) are
// retried forever with backoff; a nil return means the plan is complete.
// However it ends, Run closes with one lease-less heartbeat carrying the
// worker's final snapshots (see HeartbeatRequest).
func (w *Worker) Run(ctx context.Context) error {
	// First, so that the HTTP client exists before anything posts.
	if err := w.line.open(ctx, w.client(), w.Coordinator); err != nil {
		return err
	}
	w.cache, w.target = runner.NewWorkerCache(), ""
	defer w.cache.Close()
	w.runOne = func(i int) (struct{}, error) { return struct{}{}, w.runSession(ctx, i) }
	w.phase = w.observePhase
	// One heartbeat loop for the whole run, not one per lease; it idles
	// until execute hands it a lease and that lease's period.
	w.hb = time.NewTicker(defaultLeaseTTL / 3)
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		<-hbDone
	}()

	// resp is the reply acted on: a poll's, or the last submission's. A
	// worker polls when it starts and after a reply that granted nothing.
	var resp ResultResponse
	for polled := false; ; polled = true {
		switch {
		case resp.Done:
			w.logf("campaign complete")
			return nil
		case resp.Lease != nil:
			if err := w.execute(ctx, &resp); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
			continue
		case polled:
			// Everything is leased out; poll at the coordinator's pace.
			wait := time.Duration(resp.RetryMillis) * time.Millisecond
			if wait <= 0 {
				wait, _ = w.backoffBounds()
			}
			if !sleepCtx(ctx, w.jittered(wait)) {
				return ctx.Err()
			}
		}
		w.line.buf = appendLeaseRequest(w.line.begin(), w.Name)
		if err := w.call(ctx, w.line.lease, "", "lease_rpc", &resp); err != nil {
			return err
		}
	}
}

// execute runs resp's lease's sessions and submits the records, leaving
// the submission's reply in resp.
func (w *Worker) execute(ctx context.Context, resp *ResultResponse) error {
	l := resp.Lease
	tgt, ok := w.Resolve(l.Target)
	if !ok {
		return fmt.Errorf("remote: lease %s names unknown target %q (worker/coordinator version skew?)", l.ID, l.Target)
	}
	if l.Target != w.target {
		// Leases come in plan order, which keeps a target's cells together:
		// the warm workers of the target before are not needed again soon.
		w.cache.Keep(l.Target)
		w.target = l.Target
	}
	w.tgt = tgt
	w.cfg = runner.Config{
		Limit:          l.Limit,
		Seed:           l.Seed,
		StopAtFirstBug: l.StopAtFirstBug,
		Coverage:       l.Coverage,
		CoverageEvery:  l.CoverageEvery,
		ProfileRuns:    l.ProfileRuns,
		Metrics:        w.Metrics,
		Atlas:          w.Atlas,
		Phase:          w.phase,
	}

	// Tracing: a lease carrying a traceparent gets an "execute" span on
	// this worker's track, with one pre-minted span ID per session so the
	// prefix-replay spans (reported through cfg.Phase mid-session) can
	// parent under session spans recorded after the fact. An untraced
	// lease pays one string compare — spans stays nil until the fleet
	// actually traces.
	w.exec = obs.OpenSpan{}
	if l.Traceparent != "" {
		if parent, err := obs.ParseTraceparent(l.Traceparent); err == nil {
			if w.spans == nil {
				w.spans = obs.NewSpanLog(w.Name)
			}
			w.exec = w.spans.Start(parent, "execute")
			w.exec.Span.Lease = l.ID
			w.exec.Span.Target = l.Target
			w.exec.Span.Alg = l.Algorithm
			w.exec.Span.N = len(l.Sessions)
			w.sessIDs = w.sessIDs[:0]
			for range l.Sessions {
				w.sessIDs = append(w.sessIDs, w.spans.NewSpanID())
			}
		} else {
			w.logf("lease %s: bad traceparent %q: %v", l.ID, l.Traceparent, err)
		}
	}

	// Heartbeat at a third of the TTL while the batch executes: hand the
	// lease to the run's heartbeat loop and re-arm its ticker. A 410 means
	// the lease is gone (expired or the coordinator restarted); the loop
	// lets go of it but we finish and submit anyway — submission is
	// idempotent, and with deterministic sessions finished work is never
	// wrong, at worst redundant.
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	// The heartbeat loop, the watchdog and the log line read the ID past
	// the point where the submission's reply — the next lease — is parsed
	// into l: from a copy.
	leaseID := l.ID
	w.hbLease.Store(&leaseID)
	w.hb.Reset(ttl / 3)

	// Self-watchdog: progress is "a session of this lease completed"; a
	// lease making none for the deadline gets its stall dumped. This is
	// the worker-side mirror of the coordinator's aging-lease rule — the
	// coordinator can only say "stalled", the watchdog says where.
	if w.Watchdog > 0 {
		wdCtx, stopWD := context.WithCancel(ctx)
		defer stopWD()
		stalled := w.stalled
		if stalled == nil {
			stalled = func(leaseID string, age time.Duration) {
				w.logf("WATCHDOG lease %s: no session completed for %v; dumping goroutine profile", leaseID, age.Round(time.Millisecond))
				if p := pprof.Lookup("goroutine"); p != nil {
					_ = p.WriteTo(os.Stderr, 1)
				}
			}
		}
		go watchLease(wdCtx, w.Watchdog, &w.progress, func(age time.Duration) { stalled(leaseID, age) })
	}

	start := time.Now()
	if w.Logf != nil { // guarded where every lease passes: boxing the arguments allocates
		w.Logf("lease %s: %s/%s sessions %v", l.ID, l.Target, l.Algorithm, l.Sessions)
	}
	w.keys, w.sessions = w.keys[:0], w.sessions[:0]
	for _, session := range l.Sessions {
		w.keys = append(w.keys, runner.KeyFor(tgt, l.Algorithm, w.cfg, session))
		w.sessions = append(w.sessions, nil)
	}
	defer clear(w.sessions) // the kept array must not keep the sessions
	// Sequential when Workers normalizes to 1: Map's own plain loop.
	_, err := workpool.Map(w.Workers, len(l.Sessions), w.runOne)
	w.hbLease.Store(nil)
	if err != nil {
		return err
	}
	busy := time.Since(start).Milliseconds()
	var spans []obs.Span
	if w.exec.Active() {
		w.exec.End()
		spans = w.spans.Drain()
		if w.RetainSpans {
			w.retainMu.Lock()
			w.retained = append(w.retained, spans...)
			w.retainMu.Unlock()
		}
	}
	// The request is encoded once, here, on the line's buffer; the retries
	// of call post the same bytes.
	if w.line.buf, err = appendResultRequest(w.line.begin(), w.Name, l.ID, busy, w.keys, w.sessions, spans); err != nil {
		return err
	}
	if err := w.call(ctx, w.line.result, spanHeader(w.exec), "submit", resp); err != nil {
		return err
	}
	if w.Logf != nil {
		w.Logf("lease %s: %d accepted, %d duplicate", leaseID, resp.Accepted, resp.Duplicates)
	}
	return nil
}

// runSession runs the i-th session of the lease in execution into
// w.sessions[i].
func (w *Worker) runSession(ctx context.Context, i int) error {
	session := w.keys[i].Session
	t0 := time.Now()
	sess, err := w.cache.RunSession(ctx, w.tgt, w.keys[i].Algorithm, w.cfg, session)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	w.lat.Observe("session", d)
	w.progress.Add(1)
	if w.exec.Active() {
		// Recorded retroactively under the pre-minted ID so the
		// prefix-replay span already points at it.
		w.spans.Add(obs.Span{
			Trace: w.exec.Span.Trace, Parent: w.exec.Span.ID, ID: w.sessIDs[i],
			Name: "session", Start: t0.UnixNano(), Dur: int64(d),
			Session: session + 1,
		})
	}
	w.sessions[i] = sess
	return nil
}

// observePhase is the lease's Config.Phase: it feeds the checkpoint_fork
// histogram always (it is the only phase signal RunSession exposes) and,
// when traced, the prefix-replay spans. Consulted once per session, between
// schedules — it cannot perturb results.
func (w *Worker) observePhase(session int, phase string, start time.Time, d time.Duration) {
	if phase != "prefix" {
		return
	}
	w.lat.Observe("checkpoint_fork", d)
	if !w.exec.Active() {
		return
	}
	for i, k := range w.keys {
		if k.Session == session {
			w.spans.Add(obs.Span{
				Trace: w.exec.Span.Trace, Parent: w.sessIDs[i], Name: "prefix-replay",
				Start: start.UnixNano(), Dur: int64(d), Session: session + 1,
			})
			return
		}
	}
}

// watchLease fires stalled whenever progress makes no forward motion for a
// full deadline. It checks at deadline/4 granularity and re-arms after
// firing, so a lease stalled for N deadlines reports ~N times, not
// continuously. Factored out of execute for testability.
func watchLease(ctx context.Context, deadline time.Duration, progress *atomic.Int64, stalled func(age time.Duration)) {
	tick := deadline / 4
	if tick <= 0 {
		tick = deadline
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if cur := progress.Load(); cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if age := time.Since(lastChange); age >= deadline {
				stalled(age)
				lastChange = time.Now() // re-arm
			}
		}
	}
}

// heartbeat builds a heartbeat with the worker's cumulative snapshots aboard.
func (w *Worker) heartbeat(leaseID string) HeartbeatRequest {
	req := HeartbeatRequest{Worker: w.Name, LeaseID: leaseID, Latencies: w.lat.Wire()}
	if w.Atlas != nil {
		req.Atlas = w.Atlas.Snapshot().Cells
	}
	return req
}

// heartbeatLoop beats for whichever lease is held when the ticker fires.
// Its last beat, when ctx ends, is the leave-taking: lease-less, carrying
// everything since the beat before — all of it, when no lease outlived a
// heartbeat period. Best effort and bounded; ctx being done must not stop it.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	defer w.hb.Stop()
	for {
		select {
		case <-ctx.Done():
			bye, cancel := context.WithTimeout(context.WithoutCancel(ctx), farewellTimeout)
			defer cancel()
			if err := w.post(bye, PathHeartbeat, w.heartbeat("")); err != nil {
				w.logf("closing heartbeat failed: %v", err)
			}
			return
		case <-w.hb.C:
			id := w.hbLease.Load()
			if id == nil {
				continue
			}
			if err := w.post(ctx, PathHeartbeat, w.heartbeat(*id)); err == errLeaseGone {
				w.logf("lease %s lost; finishing batch anyway (submission is idempotent)", *id)
				w.hbLease.CompareAndSwap(id, nil) // unless execute has moved on to the next lease
			}
			// Other errors (coordinator briefly down) are ignored: the
			// next tick retries, and worst case the lease expires and the
			// batch is redundantly re-run elsewhere.
		}
	}
}

// call posts the line's buffer as req, retrying forever with backoff — the
// coordinator may be mid-restart, and a submission's records are the
// valuable half of the protocol — and reads the reply into resp, a lease it
// grants into w.lease. The round trip that succeeds is observed as op.
func (w *Worker) call(ctx context.Context, req *http.Request, traceparent, op string, resp *ResultResponse) error {
	lo, hi := w.backoffBounds()
	for backoff := lo; ; backoff = minDur(backoff*2, hi) {
		t0 := time.Now()
		reply, err := w.line.post(req, traceparent)
		if err == nil {
			err = parseResultResponse(&w.line.p, reply, resp, &w.lease)
		}
		if err == nil {
			w.lat.Observe(op, time.Since(t0))
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("%s failed (%v), backing off %v", req.URL.Path, err, backoff)
		if !sleepCtx(ctx, w.jittered(backoff)) {
			return ctx.Err()
		}
	}
}

const farewellTimeout = 5 * time.Second // bounds the closing heartbeat

// errLeaseGone distinguishes 410 (stop heartbeating, keep working) from
// transport errors (retry).
var errLeaseGone = fmt.Errorf("remote: lease gone")

// spanHeader renders a span's traceparent header value, "" when inert.
func spanHeader(o obs.OpenSpan) string {
	if !o.Active() {
		return ""
	}
	return o.Context().Traceparent()
}

// replyError turns a reply's status into the error the worker acts on. 4xx
// other than 410 is returned verbatim — a request the coordinator rejects
// as malformed or too large cannot succeed as it is.
func replyError(path string, resp *http.Response) error {
	if resp.StatusCode == http.StatusGone {
		return errLeaseGone
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("remote: %s: %s (%s)", path, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// rpc is the lease loop's line to the coordinator: its two requests — the
// poll and the submission, whose reply is the next lease — built and
// answered on storage kept from one to the next, so that a request costs
// what net/http charges for it and no more. It belongs to one goroutine.
type rpc struct {
	client *http.Client
	// lease and result are the two requests as they go out every time —
	// method, URL, context, and one header between them — copied onto the
	// body's request and given the body per post. Nothing writes to that
	// header: net/http does not modify a request's, and the posts that must
	// add to it (see post) add to a copy.
	lease, result *http.Request
	getBodyFn     func() (io.ReadCloser, error) // r.getBody, bound once
	// buf is the request body: begin hands it out empty, the caller appends
	// the message, post sends it. body is the reader over it net/http gets;
	// reply is the last reply's body, p the parser replies are read with.
	buf   []byte
	body  *rpcBody
	reply []byte
	p     wire.Parser
}

// rpcBody is a request body over rpc.buf that knows when net/http is done
// with it, and the request it goes out in. A transport may still be writing
// a request out after its reply has come back, or after the attempt has
// failed (http.RoundTripper says as much), and until it has closed the body
// neither the request, nor the reader, nor the bytes under it may change.
type rpcBody struct {
	bytes.Reader
	closed atomic.Bool
	req    http.Request
}

func newRPCBody() *rpcBody {
	b := new(rpcBody)
	b.closed.Store(true)
	return b
}

func (b *rpcBody) Close() error {
	b.closed.Store(true)
	return nil
}

// open readies the line for a Run: requests under ctx to coordinator.
func (r *rpc) open(ctx context.Context, client *http.Client, coordinator string) error {
	*r = rpc{client: client, body: newRPCBody()}
	r.getBodyFn = r.getBody
	var err error
	if r.lease, err = http.NewRequestWithContext(ctx, http.MethodPost, coordinator+PathLease, nil); err != nil {
		return err
	}
	if r.result, err = http.NewRequestWithContext(ctx, http.MethodPost, coordinator+PathResult, nil); err != nil {
		return err
	}
	r.lease.Header = http.Header{"Content-Type": {"application/json"}}
	r.result.Header = r.lease.Header
	return nil
}

// begin returns the request buffer, empty, for the next message. Should a
// transport still hold the last request's body, the buffer is left to it
// and a new one started.
func (r *rpc) begin() []byte {
	if !r.body.closed.Load() {
		r.body, r.buf = newRPCBody(), nil
	}
	return r.buf[:0]
}

// getBody serves a redirect or a retry on a fresh connection, which read
// the request again: from a reader of their own, as the first may not be
// done with r.body.
func (r *rpc) getBody() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(r.buf)), nil
}

// post sends buf as the body of a copy of tmpl and returns the reply's
// body, good until the next post. A traceparent rides as a header.
func (r *rpc) post(tmpl *http.Request, traceparent string) ([]byte, error) {
	if !r.body.closed.Load() { // a retry of buf while the failed attempt's transport still reads it
		r.body = newRPCBody()
	}
	r.body.Reset(r.buf)
	r.body.closed.Store(false)
	req := &r.body.req
	*req = *tmpl
	req.Body, req.ContentLength, req.GetBody = r.body, int64(len(r.buf)), r.getBodyFn
	if traceparent != "" || r.client.Jar != nil { // a jar adds its cookies to the header it is given
		req.Header = tmpl.Header.Clone()
		if traceparent != "" {
			req.Header.Set(obs.TraceparentHeader, traceparent)
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := replyError(tmpl.URL.Path, resp); err != nil {
		return nil, err
	}
	r.reply, err = readInto(r.reply, resp.Body)
	return r.reply, err
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
