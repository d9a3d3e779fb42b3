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

	mu         sync.Mutex
	planned    map[runner.SessionKey]bool // plan membership: rejects stray submissions
	total      int                        // len(plan)
	done       int                        // keys known stored
	pending    []batch                    // FIFO of unleased batches
	leases     map[string]*lease
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

// batch is a run of same-cell session keys, in session order.
type batch struct {
	keys []runner.SessionKey
	// enqueued feeds the queue_wait histogram: batch creation or last
	// requeue → lease grant.
	enqueued time.Time
}

type lease struct {
	id      string
	worker  string
	keys    []runner.SessionKey
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
	leases    int           // currently held
	left      bool          // took its leave (lease-less heartbeat) since its last poll
}

// NewCoordinator builds the lease queue for a plan. Keys the store
// already holds are counted done immediately — restarting a coordinator
// over a half-finished campaign resumes it.
func NewCoordinator(store runner.SessionStore, plan []runner.SessionKey, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		store:   store,
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		now:     time.Now,
		names:   make(map[string]string),
		planned: make(map[runner.SessionKey]bool, len(plan)),
		total:   len(plan),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),

		workerLat: make(map[string]map[string]obs.HistogramWire),
		cells:     make(map[campaign.CellKey]*cellStat),

		cellClasses: make(map[campaign.CellKey]map[uint64]int),
		workerAtlas: make(map[string][]atlas.CellSnapshot),
	}
	if c.opts.Tracing {
		c.spans = obs.NewSpanLog("coordinator")
	}
	c.filter = NewClassFilter(0, 0)
	t0 := c.now()
	var cur batch
	var curCell campaign.CellKey
	flush := func() {
		if len(cur.keys) > 0 {
			cur.enqueued = t0
			c.pending = append(c.pending, cur)
			cur = batch{}
		}
	}
	for _, k := range plan {
		c.planned[k] = true
		c.names[k.Target], c.names[k.Algorithm] = k.Target, k.Algorithm
		if s, ok := store.Lookup(k); ok {
			c.done++
			// A restarted coordinator rebuilds the duplicate gauges and the
			// per-cell class tallies from the records it resumes over.
			c.ingestLocked(k, s)
			continue
		}
		if cell := CellOf(k); len(cur.keys) == 0 || cell != curCell || len(cur.keys) >= c.opts.BatchSize {
			flush()
			curCell = cell
		}
		cur.keys = append(cur.keys, k)
	}
	flush()
	c.mux.HandleFunc(PathLease, c.handleLease)
	c.mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc(PathResult, c.handleResult)
	c.mux.HandleFunc(PathStatus, c.handleStatus)
	c.mux.HandleFunc(PathSpans, c.handleSpans)
	c.mux.HandleFunc(PathHealth, c.handleHealth)
	c.mux.Handle("/metrics", obs.PromHandler(func(w io.Writer) error { return c.Status().WritePrometheus(w) }))
	return c
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
	for id, l := range c.leases {
		if now.After(l.expires) {
			delete(c.leases, id)
			c.pending = append(c.pending, batch{keys: l.keys, enqueued: now})
			c.expiries++
			if ws := c.workers[l.worker]; ws != nil {
				ws.leases--
			}
			l.span.Span.Err = "expired"
			l.span.Span.HB = l.hb
			l.span.End()
		}
	}
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

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	x := c.exchange()
	defer c.exchanges.Put(x)
	if !x.readBody(w, r) {
		return
	}
	var err error
	if x.worker, err = parseLeaseRequest(&x.p, x.body, x.worker[:0]); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ws := c.touchLocked(string(x.worker), now)
	ws.left = false
	c.expireStaleLocked(now)

	// Pop batches until one still has unstored keys. A requeued batch may
	// have been completed by another worker's idempotent submission in the
	// meantime; filtering at grant time (not requeue time) keeps every
	// handler O(batch). Grants leave in queue order: plan order, with
	// requeued batches behind.
	for len(c.pending) > 0 {
		b := c.pending[0]
		c.pending = c.pending[1:] // O(1), not a shift of the whole plan
		// Filtered in place: the popped batch is the array's only holder.
		keys := b.keys[:0]
		for _, k := range b.keys {
			if _, ok := c.store.Lookup(k); !ok {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			continue
		}
		if !b.enqueued.IsZero() {
			c.lat.Observe("queue_wait", now.Sub(b.enqueued))
		}
		c.seq++
		l := &lease{
			id:      leaseID(c.seq),
			worker:  ws.name,
			keys:    keys,
			expires: now.Add(c.opts.LeaseTTL),
			granted: now,
		}
		c.leases[l.id] = l
		ws.leases++
		k0 := keys[0]
		x.sessions = x.sessions[:0]
		for _, k := range keys {
			x.sessions = append(x.sessions, k.Session)
		}
		out := Lease{
			ID: l.id, Target: k0.Target, Algorithm: k0.Algorithm,
			Limit: k0.Limit, Seed: k0.Seed, StopAtFirstBug: k0.StopAtFirstBug,
			Coverage: k0.Coverage, CoverageEvery: k0.CoverageEvery,
			ProfileRuns: k0.ProfileRuns, Sessions: x.sessions,
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
			l.span.Span.N = len(keys)
			out.Traceparent = l.span.Context().Traceparent()
		}
		x.reply = appendLeaseResponse(x.reply[:0], &LeaseResponse{Lease: &out})
		x.writeReply(w)
		return
	}
	if c.done >= c.total {
		x.reply = appendLeaseResponse(x.reply[:0], &LeaseResponse{Done: true})
	} else {
		x.reply = appendLeaseResponse(x.reply[:0], &LeaseResponse{RetryMillis: c.opts.RetryAfter.Milliseconds()})
	}
	x.writeReply(w)
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

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
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
	if err := req.parse(&x.p, x.body, c.names); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spans, err := decodeSpans(req.spans)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ws := c.touchLocked(string(req.worker), now)
	c.expireStaleLocked(now)
	for _, d := range req.records {
		if !c.planned[d.key] {
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
		delete(c.leases, l.id)
		ws.leases--
		l.span.Span.HB = l.hb
		if resp.Duplicates > 0 {
			l.span.Span.Err = fmt.Sprintf("%d duplicates", resp.Duplicates)
		}
		l.span.End()
	}
	x.reply = appendResultResponse(x.reply[:0], resp)
	x.writeReply(w)
}

// decodeSpans reads a result request's "spans" value, nil for none: only a
// traced lease's request has one, and only then is encoding/json called.
func decodeSpans(raw []byte) (spans []obs.Span, err error) {
	if raw != nil {
		err = json.Unmarshal(raw, &spans)
	}
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
			Leases:           ws.leases,
			SecondsSinceSeen: now.Sub(ws.lastSeen).Seconds(),
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
	p        wire.Parser
	body     []byte // the request's
	reply    []byte
	worker   []byte        // a lease request's
	result   resultRequest // a result request
	sessions []int         // a granted lease's session indices
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
