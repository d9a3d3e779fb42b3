package remote

// The coordinator: an http.Handler owning the lease queue of one
// distributed campaign. It is deliberately dumb — all campaign state it
// tracks beyond the store is soft (who holds which lease, worker gauges),
// so a restarted coordinator rebuilt from the same plan and store resumes
// exactly where the records left off: construction filters the plan
// against the store, and everything in flight at the crash simply expires
// on the workers' side and is re-earned through fresh leases.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/wire"
)

// CoordinatorOptions tunes the lease queue; zero values take defaults.
type CoordinatorOptions struct {
	// LeaseTTL is how long a lease lives between heartbeats before the
	// worker is presumed dead and the batch requeued. Default 30s.
	LeaseTTL time.Duration
	// BatchSize is the number of sessions per lease. Default 4.
	BatchSize int
	// RetryAfter is the poll hint handed to workers when every batch is
	// leased out. Default 500ms.
	RetryAfter time.Duration
	// Tracing enables fleet tracing: every lease gets a root span whose
	// context travels to the worker, worker spans are ingested from result
	// submissions, and the assembled log is served on /v1/spans. Off by
	// default — untraced fleets record nothing and allocate nothing.
	Tracing bool
}

// defaultLeaseTTL is also what a worker assumes of a lease that names none.
const defaultLeaseTTL = 30 * time.Second

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = defaultLeaseTTL
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 500 * time.Millisecond
	}
	return o
}

// Coordinator shards a campaign plan over HTTP. Safe for concurrent use;
// serve it with http.Server or mount it on a mux.
type Coordinator struct {
	store runner.SessionStore
	opts  CoordinatorOptions
	mux   *http.ServeMux
	now   func() time.Time // injectable clock for lease-expiry tests

	// names holds the plan's target and algorithm names, for a submitted
	// record's key to be read onto (read-only once built); exchanges pools
	// the storage one lease or result request is read and answered on.
	names     map[string]string
	exchanges sync.Pool

	mu sync.Mutex
	// The plan by index: its cells (planIndex finds one), and queue, the
	// sessions the store did not hold at construction in plan order, which a
	// batch is a range of. Both are read-only once built.
	plan       []planCell
	planIndex  map[campaign.CellKey]int
	queue      []int
	total      int     // len(plan)
	done       int     // keys known stored
	pending    []batch // FIFO of unleased batches
	leases     map[string]*lease
	free       []*lease // ended leases, for grants to reuse
	workers    map[string]*workerState
	seq        int   // lease-ID counter
	expiries   int64 // leases timed out and requeued
	duplicates int64 // records dropped because the store already held them

	// Seen-class gauges: filter counts the distinct classes ingested (its
	// own lock domain), the tallies ride under c.mu.
	filter       *ClassFilter
	schedules    int64 // schedules covered by ingested session records
	dupSchedules int64 // of those, schedules in an already-seen class

	// Observability. spans is nil unless opts.Tracing; lat holds the
	// coordinator's own histograms (queue_wait); workerLat keeps the
	// latest cumulative latency snapshot per worker, as its heartbeats
	// deliver it (replaced, never merged in place, so cumulative shipping
	// can't double-count); cells feeds the slow-cell health rule.
	spans     *obs.SpanLog
	lat       obs.LatencySet
	workerLat map[string]map[string]obs.HistogramWire
	cells     map[campaign.CellKey]*cellStat

	// The fleet atlas. cellClasses tallies ingested class fingerprints per
	// cell (a pure function of the store, so it survives coordinator
	// restarts); workerAtlas keeps the latest cumulative atlas snapshot per
	// worker (replaced like workerLat).
	cellClasses map[campaign.CellKey]map[uint64]int
	workerAtlas map[string][]atlas.CellSnapshot
}

// planCell is one cell of the plan: the key of its sessions, Session
// aside, and the session numbers the plan names for it, sorted.
type planCell struct {
	key      runner.SessionKey
	sessions []int
}

// batch is a run of one cell's sessions in plan order: queue[lo:hi], of
// plan[cell].
type batch struct {
	cell, lo, hi int
	// enqueued feeds the queue_wait histogram: batch creation or last
	// requeue → lease grant.
	enqueued time.Time
}

// lease is a grant of the batch's sessions the store did not hold then. It
// is the coordinator's alone, in c.leases and its worker's ws.lease until it
// ends, and is reused by a later grant after.
type lease struct {
	id      string
	worker  string
	batch   batch
	n       int // sessions granted
	expires time.Time
	granted time.Time    // feeds the aging-lease health rule
	hb      int          // heartbeats seen
	span    obs.OpenSpan // root "lease" span; inert unless tracing
}

type workerState struct {
	name      string // the workers map's own copy of its key
	firstSeen time.Time
	lastSeen  time.Time
	sessions  int           // accepted records
	busy      time.Duration // worker-reported execution time
	lease     *lease        // the one it holds, nil for none
	left      bool          // took its leave (lease-less heartbeat) since its last poll
}

// NewCoordinator builds the lease queue for a plan. Keys the store
// already holds are counted done immediately — restarting a coordinator
// over a half-finished campaign resumes it.
func NewCoordinator(store runner.SessionStore, plan []runner.SessionKey, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		store:     store,
		opts:      opts.withDefaults(),
		mux:       http.NewServeMux(),
		now:       time.Now,
		names:     make(map[string]string),
		planIndex: make(map[campaign.CellKey]int),
		queue:     make([]int, 0, len(plan)),
		total:     len(plan),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerState),

		workerLat: make(map[string]map[string]obs.HistogramWire),
		cells:     make(map[campaign.CellKey]*cellStat),

		cellClasses: make(map[campaign.CellKey]map[uint64]int),
		workerAtlas: make(map[string][]atlas.CellSnapshot),
	}
	if c.opts.Tracing {
		c.spans = obs.NewSpanLog("coordinator")
	}
	c.filter = NewClassFilter(0, 0)
	// A batch is at most BatchSize sessions of one run of same-cell keys,
	// so this many is room for them all.
	runs := 0
	for i, k := range plan {
		if i == 0 || CellOf(k) != CellOf(plan[i-1]) {
			runs++
		}
	}
	c.pending = make([]batch, 0, len(plan)/c.opts.BatchSize+runs)
	t0 := c.now()
	cur := batch{cell: -1, enqueued: t0}
	flush := func() {
		if cur.hi > cur.lo {
			c.pending = append(c.pending, cur)
		}
	}
	for _, k := range plan {
		cell := c.planCellOf(k)
		c.plan[cell].sessions = append(c.plan[cell].sessions, k.Session)
		if s, ok := store.Lookup(k); ok {
			c.done++
			// A restarted coordinator rebuilds the duplicate gauges and the
			// per-cell class tallies from the records it resumes over.
			c.ingestLocked(k, s)
			continue
		}
		if cell != cur.cell || cur.hi-cur.lo >= c.opts.BatchSize {
			flush()
			cur = batch{cell: cell, lo: len(c.queue), hi: len(c.queue), enqueued: t0}
		}
		c.queue = append(c.queue, k.Session)
		cur.hi++
	}
	flush()
	for i := range c.plan {
		slices.Sort(c.plan[i].sessions)
	}
	c.mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) { c.handle(w, r, true) })
	c.mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc(PathResult, func(w http.ResponseWriter, r *http.Request) { c.handle(w, r, false) })
	c.mux.HandleFunc(PathStatus, c.handleStatus)
	c.mux.HandleFunc(PathSpans, c.handleSpans)
	c.mux.HandleFunc(PathHealth, c.handleHealth)
	c.mux.Handle("/metrics", obs.PromHandler(func(w io.Writer) error { return c.Status().WritePrometheus(w) }))
	return c
}

// planCellOf returns the index of k's cell in c.plan, adding the cell when
// it is new. Only NewCoordinator calls it.
func (c *Coordinator) planCellOf(k runner.SessionKey) int {
	cell := CellOf(k)
	if i, ok := c.planIndex[cell]; ok {
		return i
	}
	c.names[k.Target], c.names[k.Algorithm] = k.Target, k.Algorithm
	key := k
	key.Session = 0
	c.plan = append(c.plan, planCell{key: key})
	c.planIndex[cell] = len(c.plan) - 1
	return len(c.plan) - 1
}

// plannedLocked reports whether the plan names k.
func (c *Coordinator) plannedLocked(k runner.SessionKey) bool {
	i, ok := c.planIndex[CellOf(k)]
	if !ok {
		return false
	}
	_, ok = slices.BinarySearch(c.plan[i].sessions, k.Session)
	return ok
}

// ingestLocked folds one session record's class tallies into the
// seen-class filter, the fleet duplicate-rate tallies, and the per-cell
// class tallies the fleet atlas' drift is read from: each class adds one
// filter observation, and every schedule beyond the first of an
// already-seen class counts as a duplicate. Sessions without coverage contribute
// nothing. Caller holds c.mu (or is still constructing c).
func (c *Coordinator) ingestLocked(k runner.SessionKey, s *runner.Session) {
	if s.Cov == nil {
		return
	}
	cell := CellOf(k)
	tally := c.cellClasses[cell]
	if tally == nil {
		tally = make(map[uint64]int)
		c.cellClasses[cell] = tally
	}
	for class, n := range s.Cov.Classes {
		c.schedules += int64(n)
		tally[class] += n
		dup := int64(n - 1)
		if !c.filter.Add(class) {
			dup++ // the class itself was already known fleet-wide
		}
		c.dupSchedules += dup
	}
}

// CellOf projects a session key onto its (target, algorithm) cell, the
// batching unit: one lease never mixes cells, so a worker resolves one
// target and one algorithm per batch.
func CellOf(k runner.SessionKey) campaign.CellKey {
	return campaign.CellKey{
		Target: k.Target, Algorithm: k.Algorithm, Limit: k.Limit, Seed: k.Seed,
		StopAtFirstBug: k.StopAtFirstBug, Coverage: k.Coverage,
		CoverageEvery: k.CoverageEvery, ProfileRuns: k.ProfileRuns,
	}
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Done reports whether every planned session is stored.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done >= c.total
}

// expireStaleLocked requeues every lease whose TTL lapsed. Called under
// c.mu from every handler, so expiry needs no background goroutine.
func (c *Coordinator) expireStaleLocked(now time.Time) {
	for _, l := range c.leases {
		if now.After(l.expires) {
			c.expiries++
			c.endLocked(l, now, true, "expired")
		}
	}
}

// endLocked takes l from its worker, requeueing its batch when asked to,
// closes its root span with errText, and keeps l for a later grant: nothing
// holds it any more.
func (c *Coordinator) endLocked(l *lease, now time.Time, requeue bool, errText string) {
	delete(c.leases, l.id)
	if ws := c.workers[l.worker]; ws != nil && ws.lease == l {
		ws.lease = nil
	}
	if requeue {
		b := l.batch
		b.enqueued = now
		c.pending = append(c.pending, b)
	}
	l.span.Span.Err = errText
	l.span.Span.HB = l.hb
	l.span.End()
	c.free = append(c.free, l)
}

// touchLocked registers/refreshes a worker's liveness. It keeps no
// reference to name — a first sight copies it — so a caller may pass a
// string(bytes) conversion of a request's storage and pay nothing for it.
func (c *Coordinator) touchLocked(name string, now time.Time) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{name: strings.Clone(name), firstSeen: now}
		c.workers[ws.name] = ws
	}
	ws.lastSeen = now
	return ws
}

// handle answers a poll (a LeaseRequest, read as a ResultRequest with no
// records) or a submission: it stores the records, then grants the worker
// its next lease. A poll carries only a worker's name, and ends its leave.
func (c *Coordinator) handle(w http.ResponseWriter, r *http.Request, poll bool) {
	submitStart := time.Now()
	x := c.exchange()
	defer c.exchanges.Put(x)
	if !x.readBody(w, r) {
		return
	}
	// Read and validate everything before taking the lock or touching the
	// store, so a malformed submission changes nothing.
	req := &x.result
	defer clear(req.records) // the pooled array must not keep the sessions
	err := req.parse(&x.p, x.body, c.names)
	var spans []obs.Span
	if err == nil {
		spans, err = decodeSpans(req.spans)
	}
	if err == nil && poll && (len(req.leaseID) > 0 || req.busyMillis != 0 || len(req.records) > 0 || req.spans != nil) {
		err = errors.New("remote: a lease request carries a worker's name only; results go to " + PathResult)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ws := c.touchLocked(string(req.worker), now)
	if poll {
		ws.left = false
	}
	c.expireStaleLocked(now)
	for _, d := range req.records {
		if !c.plannedLocked(d.key) {
			http.Error(w, fmt.Sprintf("remote: session %s/%s #%d is not in the campaign plan",
				d.key.Target, d.key.Algorithm, d.key.Session), http.StatusBadRequest)
			return
		}
	}
	resp := ResultResponse{}
	for _, d := range req.records {
		// Idempotency: Lookup-before-Store under c.mu. Duplicates arise
		// from lease reassignment or submission retries; sessions are
		// deterministic, so dropping them loses nothing.
		if _, ok := c.store.Lookup(d.key); ok {
			resp.Duplicates++
			c.duplicates++
			continue
		}
		if _, err := c.store.Store(d.key, d.sess); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp.Accepted++
		c.done++
		ws.sessions++
		c.ingestLocked(d.key, d.sess)
	}
	busy := time.Duration(req.busyMillis) * time.Millisecond
	ws.busy += busy
	// Cell throughput for the slow-cell health rule. A lease never mixes
	// cells, so the first record's cell owns the whole batch's busy time.
	if len(req.records) > 0 {
		cell := CellOf(req.records[0].key)
		cs := c.cells[cell]
		if cs == nil {
			cs = &cellStat{}
			c.cells[cell] = cs
		}
		for _, d := range req.records {
			cs.schedules += int64(d.sess.Schedules)
		}
		cs.busy += busy
	}
	if c.spans.Enabled() {
		for _, s := range spans {
			c.spans.Add(s)
		}
		// The submit leg, measured server-side under the worker's execute
		// span (from the request's traceparent header) — the one genuinely
		// cross-process span of the trace.
		if pctx, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); err == nil {
			c.spans.Add(obs.Span{
				Trace: pctx.Trace, Parent: pctx.Span, Name: "submit",
				Start: submitStart.UnixNano(), Dur: int64(time.Since(submitStart)),
				Worker: ws.name, N: resp.Accepted,
			})
		}
	}
	// Completing the lease is best-effort: if it already expired (or the
	// coordinator restarted), the records above were still accepted.
	if l, ok := c.leases[string(req.leaseID)]; ok && l.worker == ws.name {
		errText := ""
		if resp.Duplicates > 0 {
			errText = fmt.Sprintf("%d duplicates", resp.Duplicates)
		}
		c.endLocked(l, now, false, errText)
	}
	c.grantLocked(ws, now, x, &resp.LeaseResponse)
	x.reply = appendResultResponse(x.reply[:0], &resp)
	x.writeReply(w)
}

// grantLocked answers ws's request for a lease into resp: the next lease,
// described on x's storage, else done or a retry hint. The lease ws already
// holds is requeued first: ws is asking for another because the reply that
// carried it was lost, and one it asks for again is one it will never run.
// A worker that took its leave is granted nothing by a submission that was
// still on its way.
func (c *Coordinator) grantLocked(ws *workerState, now time.Time, x *exchange, resp *LeaseResponse) {
	if ws.lease != nil {
		c.endLocked(ws.lease, now, true, "requeued")
	}
	// Pop batches until one still has unstored keys. A requeued batch may
	// have been completed by another worker's idempotent submission in the
	// meantime; filtering at grant time (not requeue time) keeps every
	// handler O(batch). Grants leave in queue order: plan order, with
	// requeued batches behind.
	out := &x.lease
	for !ws.left && len(c.pending) > 0 {
		b := c.pending[0]
		c.pending = c.pending[1:] // O(1), not a shift of the whole plan
		k0 := c.plan[b.cell].key
		sessions := out.Sessions[:0]
		for _, s := range c.queue[b.lo:b.hi] {
			k := k0
			k.Session = s
			if _, ok := c.store.Lookup(k); !ok {
				sessions = append(sessions, s)
			}
		}
		out.Sessions = sessions
		if len(sessions) == 0 {
			continue
		}
		if !b.enqueued.IsZero() {
			c.lat.Observe("queue_wait", now.Sub(b.enqueued))
		}
		c.seq++
		var l *lease
		if n := len(c.free); n > 0 {
			l, c.free = c.free[n-1], c.free[:n-1]
		} else {
			l = new(lease)
		}
		*l = lease{
			id:      leaseID(c.seq),
			worker:  ws.name,
			batch:   b,
			n:       len(sessions),
			expires: now.Add(c.opts.LeaseTTL),
			granted: now,
		}
		c.leases[l.id] = l
		ws.lease = l
		*out = Lease{
			ID: l.id, Target: k0.Target, Algorithm: k0.Algorithm,
			Limit: k0.Limit, Seed: k0.Seed, StopAtFirstBug: k0.StopAtFirstBug,
			Coverage: k0.Coverage, CoverageEvery: k0.CoverageEvery,
			ProfileRuns: k0.ProfileRuns, Sessions: sessions,
			TTLMillis: c.opts.LeaseTTL.Milliseconds(),
		}
		if c.spans.Enabled() {
			// Root of the end-to-end trace: one fresh TraceID per lease.
			// The span stays open until the lease completes or expires;
			// its context rides to the worker as a W3C traceparent.
			root := c.spans.NewRoot()
			l.span = c.spans.Start(obs.SpanContext{Trace: root.Trace}, "lease")
			l.span.Span.Lease = l.id
			l.span.Span.Worker = ws.name
			l.span.Span.Target = k0.Target
			l.span.Span.Alg = k0.Algorithm
			l.span.Span.N = l.n
			out.Traceparent = l.span.Context().Traceparent()
		}
		resp.Lease = out
		return
	}
	if c.done >= c.total {
		resp.Done = true
	} else {
		resp.RetryMillis = c.opts.RetryAfter.Milliseconds()
	}
}

// leaseID renders the seq-th lease's ID, "l%06d".
func leaseID(seq int) string {
	var buf [24]byte
	id := append(buf[:0], 'l')
	for pad := 100000; pad > seq && pad > 1; pad /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendInt(id, int64(seq), 10))
}

// AllWorkersNotified reports whether every worker that ever contacted the
// coordinator has since taken its leave: the lease-less heartbeat a worker
// answered Done sends next, with its final snapshots. A completed
// coordinator that tears its listener down before this point races the
// idle pollers — a worker sleeping out its RetryMillis hint wakes to a
// dead socket and retries forever (by design: it cannot tell a finished
// campaign from a restarting coordinator) — and loses those snapshots.
// Callers should linger until this returns true, with a short cap for
// workers that died and will never be heard from again.
func (c *Coordinator) AllWorkersNotified() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workers {
		if !ws.left {
			return false
		}
	}
	return true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ws := c.touchLocked(req.Worker, now)
	c.expireStaleLocked(now)
	// Latest cumulative snapshots per worker: replace, never fold, so a
	// growing snapshot shipped again and again can't double-count.
	if len(req.Latencies) > 0 {
		c.workerLat[req.Worker] = req.Latencies
	}
	if len(req.Atlas) > 0 {
		c.workerAtlas[req.Worker] = req.Atlas
	}
	if req.LeaseID == "" {
		ws.left = true
		if ws.lease != nil {
			c.endLocked(ws.lease, now, true, "left")
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		// Expired, completed, reassigned, or from before a coordinator
		// restart: the lease is gone. 410 tells the worker to stop
		// heartbeating; its eventual submission is still welcome (and
		// idempotent).
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	l.hb++
	w.WriteHeader(http.StatusNoContent)
}

// decodeSpans reads a result request's "spans" value, nil for none: only a
// traced lease's request has one, and only then is encoding/json called —
// or spans moved to the heap, which its address handed to Unmarshal does.
func decodeSpans(raw []byte) ([]obs.Span, error) {
	if raw == nil {
		return nil, nil
	}
	var spans []obs.Span
	err := json.Unmarshal(raw, &spans)
	return spans, err
}

// handleSpans serves the coordinator's assembled span log as JSONL —
// coordinator root spans, ingested worker spans, and submit legs. Empty
// (but well-formed) when tracing is off.
func (c *Coordinator) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_ = obs.WriteSpansJSONL(w, c.Spans())
}

// handleHealth serves the stall-detection report.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteJSON(w, c.Health())
}

// Spans snapshots the fleet span log (nil when tracing is off) — what
// surw bench -fleet-trace writes to disk at campaign end.
func (c *Coordinator) Spans() []obs.Span { return c.spans.Snapshot() }

// AtlasSnapshot assembles the fleet's exploration atlas: the latest
// cumulative cartography snapshot from each worker, merged cell-wise,
// with each cell's uniformity drift recomputed from the coordinator's own
// ingested class tallies (a pure function of the store, so the drift
// verdicts — unlike the merged density grids — survive worker restarts
// and coordinator restarts alike). Nil when no worker ever shipped one.
func (c *Coordinator) AtlasSnapshot() *atlas.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workerAtlas) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.workerAtlas))
	for name := range c.workerAtlas {
		names = append(names, name)
	}
	sort.Strings(names)
	groups := make([][]atlas.CellSnapshot, 0, len(names))
	for _, name := range names {
		groups = append(groups, c.workerAtlas[name])
	}
	merged := atlas.MergeCells(groups...)
	// Drift per (target, algorithm), summed over every cell configuration
	// that maps there (one, in any sane plan).
	classes := make(map[[2]string]map[uint64]int)
	for k, tally := range c.cellClasses {
		key := [2]string{k.Target, k.Algorithm}
		m := classes[key]
		if m == nil {
			m = make(map[uint64]int, len(tally))
			classes[key] = m
		}
		for class, n := range tally {
			m[class] += n
		}
	}
	for i := range merged {
		if m := classes[[2]string{merged[i].Target, merged[i].Algorithm}]; len(m) > 0 {
			d := atlas.DriftFromCounts(m)
			merged[i].Uniformity = &d
		}
	}
	return &atlas.Snapshot{Version: atlas.Version, Cells: merged}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteJSON(w, c.Status())
}

// Status snapshots the queue for the dashboard (campaign.Server.SetRemote)
// and the /metrics gauges.
func (c *Coordinator) Status() *campaign.RemoteStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireStaleLocked(now)
	observed, distinct := c.filter.Stats()
	rs := &campaign.RemoteStatus{
		SessionsPlanned:   c.total,
		SessionsDone:      c.done,
		InFlightLeases:    len(c.leases),
		PendingBatches:    len(c.pending),
		LeaseExpiries:     c.expiries,
		DuplicateResults:  c.duplicates,
		ClassObservations: observed,
		DistinctClasses:   distinct,
	}
	if c.schedules > 0 {
		rs.DuplicateRate = float64(c.dupSchedules) / float64(c.schedules)
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		wk := campaign.RemoteWorker{
			Name:             name,
			Sessions:         ws.sessions,
			BusySeconds:      ws.busy.Seconds(),
			SecondsSinceSeen: now.Sub(ws.lastSeen).Seconds(),
		}
		if ws.lease != nil {
			wk.Leases = 1
		}
		if life := now.Sub(ws.firstSeen); life > 0 {
			wk.Utilization = ws.busy.Seconds() / life.Seconds()
		}
		rs.Workers = append(rs.Workers, wk)
	}
	// Fleet latency view: the coordinator's own histograms merged with the
	// latest snapshot from each worker. Built fresh per call — merging
	// cumulative worker snapshots into a long-lived set would double-count.
	var fleet obs.LatencySet
	fleet.Merge(c.lat.Wire())
	for _, wl := range c.workerLat {
		fleet.Merge(wl)
	}
	rs.Latencies = fleet.Snapshots()
	rs.Health = c.healthLocked(now)
	return rs
}

// maxBody bounds a POST body, so that one bad worker cannot post the
// coordinator out of memory. The largest body the fleet tests of cmd/surw
// send is 15 KB; what sizes the bound is a batch of coverage sessions at the
// paper's scale — 10⁴ schedules, every one a new interleaving and a new
// class, is ≈ 0.5 MB a record, 2 MB at the default four a lease — times 8.
const maxBody = 16 << 20

// jsonContentType is every JSON reply's Content-Type, assigned rather than
// set: no canonicalising, no slice per reply.
var jsonContentType = []string{"application/json"}

// exchange is the storage one lease or result request is read, parsed and
// answered on, kept from request to request in the coordinator's pool.
type exchange struct {
	p      wire.Parser
	body   []byte // the request's
	reply  []byte
	result resultRequest // the request, a poll read as one with no records
	lease  Lease         // the lease the reply grants
}

func (c *Coordinator) exchange() *exchange {
	if x, ok := c.exchanges.Get().(*exchange); ok {
		return x
	}
	return new(exchange)
}

// postBody bounds a POST's body, rejecting other methods.
func postBody(w http.ResponseWriter, r *http.Request) (io.Reader, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	return http.MaxBytesReader(w, r.Body, maxBody), true
}

// bodyError answers a body that could not be read or decoded: 413 past
// maxBody, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
}

// readBody reads a POST's whole body onto x, within maxBody.
func (x *exchange) readBody(w http.ResponseWriter, r *http.Request) bool {
	body, ok := postBody(w, r)
	if !ok {
		return false
	}
	var err error
	if x.body, err = readInto(x.body, body); err != nil {
		bodyError(w, err)
		return false
	}
	return true
}

// writeReply sends x.reply, one JSON value, as encoding/json's Encoder
// would: a newline behind it.
func (x *exchange) writeReply(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	x.reply = append(x.reply, '\n')
	_, _ = w.Write(x.reply)
}
