// Package runner drives the paper's experimental methodology: for a target
// program and an algorithm it runs sessions of up to a fixed number of
// schedules, profiles once per session for the algorithms that need count
// estimates, re-draws the interesting-event subset Δ per schedule (the
// paper's SCTBench/ConVul instantiation), and records schedules-to-first-
// bug, distinct bugs, and interleaving/behaviour coverage.
package runner

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"surw/internal/atlas"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/sched"
	"surw/internal/stats"
	"surw/internal/workpool"
)

// Target describes a program under test.
type Target struct {
	// Name identifies the target in reports ("CS/reorder_10", ...).
	Name string
	// Prog is the root thread body. It must be re-runnable: all shared
	// state is created inside it through the sched API.
	Prog func(*sched.Thread)
	// MaxSteps bounds each schedule (0 = sched.DefaultMaxSteps).
	MaxSteps int
	// ProgSeed fixes the program-input randomness for all schedules.
	ProgSeed int64
	// Select overrides the per-schedule Δ choice for SURW/N-U; nil uses the
	// paper's default, a single shared variable drawn with probability
	// proportional to its access count. Returning ok=false falls back to
	// Δ = Γ for that schedule.
	Select func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool)
	// TraceFilter restricts which events form the interleaving fingerprint
	// for coverage studies (nil = all events).
	TraceFilter func(sched.Event) bool
}

// Config controls a batch of sessions.
type Config struct {
	// Sessions is the number of independent sessions (paper: 20).
	Sessions int
	// Limit is the schedule budget per session (paper: 10^4).
	Limit int
	// Seed derives all session and schedule seeds.
	Seed int64
	// StopAtFirstBug ends a session at its first failing schedule
	// (schedules-to-first-bug methodology). Leave false to keep sampling
	// and accumulate distinct bugs (RaceBench methodology).
	StopAtFirstBug bool
	// Coverage records interleaving and behaviour tallies with a series
	// point every CoverageEvery schedules (Figure 5 / Table 3).
	Coverage      bool
	CoverageEvery int
	// ProfileRuns is the number of census runs per session (default 1).
	ProfileRuns int
	// Workers is how many sessions of the run — every cell's, see RunCells
	// — are in flight at once: 1 runs them one after another on the
	// caller's goroutine, <= 0 means one worker per CPU
	// (runtime.GOMAXPROCS(0)). Results are bit-identical under every
	// setting; see parallel.go.
	Workers int
	// Metrics, when non-nil, aggregates observability counters (schedule
	// throughput, decision histograms, worker utilization, phase latency
	// histograms) across the batch. Attaching it never changes results; see
	// internal/obs.
	Metrics *obs.Metrics
	// Phase, when non-nil, is called at session phase boundaries — today
	// once per session after the prefix capture ("prefix", schedule 0's
	// RunPrefix) — with the phase's start time and duration. Strictly
	// observational: it is consulted only between schedules and must not
	// block. The distributed worker uses it to parent prefix-replay spans
	// under session spans; everything else leaves it nil.
	Phase func(session int, phase string, start time.Time, d time.Duration)
	// FlightDir, when non-empty, enables the flight recorder: each session's
	// first failing schedule is re-executed with a replay recorder attached
	// and dumped as a JSON flight record under this directory (replayable
	// with `surw run -replay-flight`). See internal/obs/flight.go.
	FlightDir string
	// Store, when non-nil, makes the batch resumable: each session's key is
	// looked up before it runs (a hit is returned without executing a single
	// schedule) and every freshly executed session is handed to it on
	// completion. Both paths report the store's canonical (wire round-trip)
	// session, so a resumed batch is byte-identical to an uninterrupted one
	// at any Workers setting; a fresh session's Flight is reported beside it,
	// never stored. Attaching a store never changes which threads are
	// scheduled: it is consulted strictly between sessions (see
	// internal/campaign). Resumed sessions do not re-run, so they feed
	// neither Metrics nor the flight recorder.
	Store SessionStore
	// Atlas, when non-nil, accumulates schedule-space cartography and
	// per-cell uniformity drift (internal/atlas): each session attaches
	// its cell's accumulator to the engine and feeds the cell one class
	// fingerprint per completed schedule. Execution plumbing like Metrics
	// and Store — it never changes a schedule, a result, or a session
	// key, and resumed (store-hit) sessions feed it nothing.
	Atlas *atlas.Atlas
}

// SessionKey identifies one session's work deterministically: everything
// that feeds the session's seeds and its observable outcome, independent of
// Config.Sessions and Config.Workers (a session's result depends only on
// its own index). CoverageEvery is the effective cadence (0 when Coverage
// is off), so equivalent configs share keys.
type SessionKey struct {
	Target         string
	Algorithm      string
	Limit          int
	Seed           int64
	Session        int
	StopAtFirstBug bool
	Coverage       bool
	CoverageEvery  int
	ProfileRuns    int
}

// SessionStore persists per-session results for crash-safe, resumable
// batches. internal/campaign provides the JSONL-backed implementation; the
// indirection keeps the runner free of storage concerns (and of an import
// cycle). Implementations must be safe for concurrent use: parallel
// sessions look up and store concurrently.
//
// A stored session is owned once and shared read-only: Store takes
// ownership of the session it is handed — the caller writes it no more —
// and the sessions Store and Lookup return may be the store's own records,
// which nobody may write.
type SessionStore interface {
	// Lookup returns the previously stored session for the key, if any.
	Lookup(SessionKey) (*Session, bool)
	// Store persists a freshly executed session and returns its canonical
	// form (the wire round-trip), which the runner reports in place of the
	// in-memory one so fresh and resumed batches are bit-identical.
	Store(SessionKey, *Session) (*Session, error)
}

// BatchObserver is an optional extension of SessionStore: when the store
// implements it, RunCells reports each completed (target, algorithm) cell,
// which the campaign layer turns into live dashboard events.
type BatchObserver interface {
	CellDone(target, alg string, limit int, seed int64, res *Result)
}

// normalized applies the batch defaults RunTarget has always applied, so
// session keys and session seeds are identical however the config reaches
// the engine (a local batch, a resumed campaign, or a remote lease).
func (cfg Config) normalized() Config {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 1000
	}
	return cfg
}

// KeyFor returns the normalized SessionKey the engine uses for one session
// of a batch — the deterministic unit of work a campaign plan is made of.
// internal/remote shards campaigns by these keys, so the derivation must
// stay in lockstep with runSession's.
func KeyFor(tgt Target, algName string, cfg Config, session int) SessionKey {
	return sessionKey(tgt, algName, cfg.normalized(), session)
}

// sessionKey builds the normalized key for one session of the batch.
func sessionKey(tgt Target, algName string, cfg Config, session int) SessionKey {
	k := SessionKey{
		Target:         tgt.Name,
		Algorithm:      algName,
		Limit:          cfg.Limit,
		Seed:           cfg.Seed,
		Session:        session,
		StopAtFirstBug: cfg.StopAtFirstBug,
		Coverage:       cfg.Coverage,
		ProfileRuns:    cfg.ProfileRuns,
	}
	if cfg.Coverage {
		k.CoverageEvery = effectiveEvery(cfg)
	}
	return k
}

// effectiveEvery resolves the coverage-series cadence default.
func effectiveEvery(cfg Config) int {
	if cfg.CoverageEvery > 0 {
		return cfg.CoverageEvery
	}
	return cfg.Limit/50 + 1
}

// CovPoint is one point of a coverage curve. Classes counts the distinct
// commutation classes (sched.Result.ClassHash) seen so far — the
// deduplicated counterpart of Interleavings.
type CovPoint struct {
	Schedules     int
	Interleavings int
	Behaviors     int
	Classes       int
}

// Coverage tallies the distinct interleavings, commutation classes and
// behaviours one session witnessed. DupSchedules counts the schedules
// whose class fingerprint had already been seen within the session — the
// schedules an ideal dedup-aware sampler would not have spent.
type Coverage struct {
	Interleavings map[uint64]int
	Classes       map[uint64]int
	Behaviors     map[string]int
	DupSchedules  int
	Series        []CovPoint
}

// InterleavingEntropy returns the Shannon entropy of the interleaving
// distribution sampled by the session.
func (c *Coverage) InterleavingEntropy() float64 { return stats.EntropyOfMap(c.Interleavings) }

// BehaviorEntropy returns the Shannon entropy of the behaviour
// distribution sampled by the session.
func (c *Coverage) BehaviorEntropy() float64 { return stats.EntropyOfMap(c.Behaviors) }

// Session is the outcome of one session.
type Session struct {
	// FirstBug is the 1-based schedule index of the first bug, counting the
	// profiling run for the algorithms that need one (the paper's
	// accounting); -1 if the budget expired bug-free.
	FirstBug int
	// Bugs counts how many schedules manifested each distinct bug ID.
	Bugs map[string]int
	// Schedules is the number of testing schedules actually run.
	Schedules int
	// Truncated counts schedules that hit the step budget.
	Truncated int
	// Cov is non-nil when Config.Coverage was set.
	Cov *Coverage
	// Flight is the path of the flight record dumped for this session's
	// first failing schedule ("" when Config.FlightDir is unset or the
	// session found no bug). Excluded from Equal: it describes where a
	// diagnostic artifact landed, not what the session observed.
	Flight string
}

// Result aggregates the sessions of one (target, algorithm) pair.
type Result struct {
	Target    string
	Algorithm string
	Limit     int
	Sessions  []Session
	// Elapsed is the summed run time of the sessions the batch executed:
	// worker-seconds, whatever Config.Workers. It is observational
	// (excluded from Equal, never persisted): it backs the throughput
	// footers of the surw bench tables.
	Elapsed time.Duration
	// Executed is how many of TotalSchedules the batch ran itself: those of
	// the sessions Config.Store did not already hold. Observational like
	// Elapsed, and what Elapsed was spent on.
	Executed int
}

// TotalSchedules sums the testing schedules of every session.
func (r *Result) TotalSchedules() int {
	n := 0
	for i := range r.Sessions {
		n += r.Sessions[i].Schedules
	}
	return n
}

// SchedulesPerSecond returns the batch's throughput per worker over the
// schedules it executed (0 when no time was observed or nothing ran, e.g.
// on a Result assembled from a store).
func (r *Result) SchedulesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Executed) / r.Elapsed.Seconds()
}

// RunTarget runs cfg.Sessions sessions of algName on the target: RunCells
// on one cell.
func RunTarget(tgt Target, algName string, cfg Config) (*Result, error) {
	return RunTargetContext(context.Background(), tgt, algName, cfg)
}

// worker is what one session borrows for its duration and a WorkerCache
// recycles across the sessions of one target: the Driver — the sched.Pool
// (census and testing schedules alike run on it), the census collector with
// the tables, profile and infos it fills, the Δ-selection stream — the
// Result every schedule of the session is written into, and — once a
// session with an atlas has borrowed it — the atlas accumulator the engine
// writes into: plain counters only this worker's schedules touch
// (runSession drains it into the cell under the cell's lock and always
// leaves it empty). Nothing a session leaves in a worker reaches the next
// one's results: Pool.Run is bit-identical to sched.Run whatever ran before
// (sched/pool_test.go), a reused collector's profile equals a fresh
// Collect's (profile.TestCollectorReuseMatchesCollect), a schedule
// overwrites every field of the Result, and the stream is re-seeded before
// its first draw. Nothing of a worker's reaches the Session a caller keeps
// either: that is built from the Result's values.
type worker struct {
	drv   Driver
	res   sched.Result
	stage *atlas.Accum
}

// stagePool recycles the staging accumulators (13 KB of counters each)
// across caches, so a campaign of many small cells does not allocate one
// per cell. Everything in it is empty.
var stagePool = sync.Pool{New: func() any { return new(atlas.Accum) }}

func (w *worker) staging() *atlas.Accum {
	if w.stage == nil {
		w.stage = stagePool.Get().(*atlas.Accum)
	}
	return w.stage
}

// WorkerCache owns the warm workers that sessions run on, keyed by target
// name so that a pool's interned names, spawn memo and parked coroutines
// stay one program's. A run (RunCells) holds one for its duration, a fleet
// worker across its leases. Safe for concurrent use; one session to a worker.
type WorkerCache struct {
	mu   sync.Mutex
	free map[string][]*worker
}

// NewWorkerCache returns an empty cache.
func NewWorkerCache() *WorkerCache { return &WorkerCache{free: make(map[string][]*worker)} }

func (wc *WorkerCache) get(target string) *worker {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if ws := wc.free[target]; len(ws) > 0 {
		wc.free[target] = ws[:len(ws)-1]
		return ws[len(ws)-1]
	}
	return &worker{drv: Driver{pool: sched.NewPool()}}
}

func (wc *WorkerCache) put(target string, w *worker) {
	wc.mu.Lock()
	wc.free[target] = append(wc.free[target], w)
	wc.mu.Unlock()
}

// drop closes the warm workers kept for target — ends their pools' parked
// goroutines, hands the (drained) staging accumulators back — once the
// sessions that borrowed them have returned.
func (wc *WorkerCache) drop(target string) {
	wc.mu.Lock()
	ws := wc.free[target]
	delete(wc.free, target)
	wc.mu.Unlock()
	for _, w := range ws {
		w.drv.Close()
		if w.stage != nil {
			stagePool.Put(w.stage)
		}
	}
}

// Keep closes the warm workers of every target but target, as RunCells
// does when a target's last session lands. A fleet worker calls it when a
// lease names a new target. Call it once the sessions on the other targets
// have returned.
func (wc *WorkerCache) Keep(target string) {
	for _, t := range wc.Targets() {
		if t != target {
			wc.drop(t)
		}
	}
}

// Targets returns the names of the targets the cache holds warm workers
// for, sorted.
func (wc *WorkerCache) Targets() []string {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return slices.Sorted(maps.Keys(wc.free))
}

// Close closes every warm worker. Call it once the sessions on the cache
// have returned.
func (wc *WorkerCache) Close() {
	wc.mu.Lock()
	targets := slices.Collect(maps.Keys(wc.free))
	wc.mu.Unlock()
	for _, target := range targets {
		wc.drop(target)
	}
}

// RunTargetContext is RunTarget with cancellation: ctx is consulted between
// schedules, so a long batch stops within one schedule of cancellation and
// returns the context's error instead of a result. Sessions that completed
// before the cancellation and were persisted to cfg.Store stand — a
// resumed batch skips them — so cancelling a campaign loses at most the
// in-flight sessions, never the finished ones.
func RunTargetContext(ctx context.Context, tgt Target, algName string, cfg Config) (*Result, error) {
	results, err := RunCells(ctx, []Cell{{Target: tgt, Alg: algName, Config: cfg}}, nil)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Cell is one (target, algorithm) batch of a run: Config.Sessions sessions,
// each a function of its SessionKey alone.
type Cell struct {
	Target Target
	Alg    string
	Config Config
}

// Plan lists the cells' session keys — KeyFor's, so they match the records
// a local run writes — in plan order, cell by cell and session by session:
// the order RunCells starts them in and a fleet is granted them in.
func Plan(cells []Cell) []SessionKey {
	var plan []SessionKey
	for _, c := range cells {
		cfg := c.Config.normalized()
		for s := 0; s < cfg.Sessions; s++ {
			plan = append(plan, sessionKey(c.Target, c.Alg, cfg, s))
		}
	}
	return plan
}

// RunCells runs every session of every cell and returns the cells' Results
// in cell order. The session is the one unit of work: the plan is drained
// in Plan's order by one pool of workers on one WorkerCache, each session
// written into its cell's slot by index (parallel.go has the confinement
// argument). The pool is the run's, not a cell's: its width and its meter
// are the first cell's Config.Workers and Config.Metrics; every other field
// of a Config is read per cell.
//
// When a cell's last session lands its Result is reported — to the cell's
// Store if that is a BatchObserver, then to done (nil: nobody) with the
// cell's index — from whichever worker ran it, two cells' possibly at once.
// When a target's last session lands its warm workers are closed: a plan
// that keeps a target's cells together holds warm workers for the targets
// in flight, not for every target it names.
//
// ctx cancels between schedules. An error (the lowest-index failing
// session's) discards the results; cells reported before it stay reported
// and their stored sessions stand.
func RunCells(ctx context.Context, cells []Cell, done func(i int, res *Result)) ([]*Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	cells = slices.Clone(cells) // their Configs are normalized below
	type item struct{ cell, session int }
	var items []item
	results := make([]*Result, len(cells))
	// Sessions yet to land, by cell and by target; mu guards both and the
	// Results' Executed and Elapsed.
	var mu sync.Mutex
	cellLeft, targetLeft := make([]int, len(cells)), make(map[string]int)
	for i := range cells {
		c := &cells[i]
		c.Config = c.Config.normalized()
		n := c.Config.Sessions
		results[i] = &Result{Target: c.Target.Name, Algorithm: c.Alg, Limit: c.Config.Limit, Sessions: make([]Session, n)}
		cellLeft[i] = n
		targetLeft[c.Target.Name] += n
		for s := 0; s < n; s++ {
			items = append(items, item{i, s})
		}
	}
	// A typed-nil *obs.Metrics must not become a non-nil Meter interface.
	var meter workpool.Meter
	if m := cells[0].Config.Metrics; m != nil {
		meter = m
	}
	wc := NewWorkerCache()
	defer wc.Close()
	_, err := workpool.MapMetered(cells[0].Config.Workers, len(items), meter, func(i int) (struct{}, error) {
		it := items[i]
		c, res := &cells[it.cell], results[it.cell]
		t0 := time.Now()
		sess, ran, err := wc.run(ctx, c.Target, c.Alg, c.Config, it.session)
		if err != nil {
			return struct{}{}, fmt.Errorf("runner: %s/%s session %d: %w", c.Target.Name, c.Alg, it.session, err)
		}
		took := time.Since(t0)
		if c.Config.Metrics != nil {
			c.Config.Metrics.Latency("session").Observe(took)
		}
		res.Sessions[it.session] = *sess
		mu.Lock()
		if ran {
			res.Executed += sess.Schedules
			res.Elapsed += took
		}
		cellLeft[it.cell]--
		targetLeft[c.Target.Name]--
		cellDone, targetDone := cellLeft[it.cell] == 0, targetLeft[c.Target.Name] == 0
		mu.Unlock()
		if targetDone {
			// Every session of the target has returned, so every worker it
			// borrowed is back in the cache.
			wc.drop(c.Target.Name)
		}
		if cellDone {
			if bo, ok := c.Config.Store.(BatchObserver); ok {
				bo.CellDone(c.Target.Name, c.Alg, c.Config.Limit, c.Config.Seed, res)
			}
			if done != nil {
				done(it.cell, res)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunSession executes exactly one session of the batch cfg describes — the
// session with the given index, seeded from it — and returns its outcome.
// It is the unit a distributed worker executes for a lease: because a
// session's result depends only on (target, algorithm, normalized config,
// index), a session run remotely is bit-identical to the same session run
// in a local batch. ctx cancels between schedules; a cancelled session
// returns the context's error and no Session (the coordinator's lease
// expiry re-queues the work). Either way, every schedule the session ran is
// in cfg.Metrics and cfg.Atlas by the time RunSession returns. This is the
// one-shot form: a caller with more sessions to run holds a WorkerCache.
func RunSession(ctx context.Context, tgt Target, algName string, cfg Config, session int) (*Session, error) {
	wc := NewWorkerCache()
	defer wc.Close()
	return wc.RunSession(ctx, tgt, algName, cfg, session)
}

// RunSession is the package-level RunSession on one of the cache's warm
// workers for tgt: the same result.
func (wc *WorkerCache) RunSession(ctx context.Context, tgt Target, algName string, cfg Config, session int) (*Session, error) {
	sess, _, err := wc.run(ctx, tgt, algName, cfg, session)
	return sess, err
}

func (wc *WorkerCache) run(ctx context.Context, tgt Target, algName string, cfg Config, session int) (*Session, bool, error) {
	w := wc.get(tgt.Name)
	defer wc.put(tgt.Name, w)
	return runSession(ctx, tgt, algName, cfg.normalized(), session, w)
}

// Equal reports whether two results are observably identical: same target,
// algorithm, limit, and per-session outcomes including bug tallies and
// coverage curves. It backs the worker-count-invariance guarantee (results
// are bit-identical under any Config.Workers setting).
func (r *Result) Equal(o *Result) bool {
	if r.Target != o.Target || r.Algorithm != o.Algorithm || r.Limit != o.Limit ||
		len(r.Sessions) != len(o.Sessions) {
		return false
	}
	for i := range r.Sessions {
		if !r.Sessions[i].equal(&o.Sessions[i]) {
			return false
		}
	}
	return true
}

func (s *Session) equal(o *Session) bool {
	if s.FirstBug != o.FirstBug || s.Schedules != o.Schedules ||
		s.Truncated != o.Truncated || len(s.Bugs) != len(o.Bugs) {
		return false
	}
	for id, n := range s.Bugs {
		if o.Bugs[id] != n {
			return false
		}
	}
	if (s.Cov == nil) != (o.Cov == nil) {
		return false
	}
	if s.Cov == nil {
		return true
	}
	return s.Cov.equal(o.Cov)
}

func (c *Coverage) equal(o *Coverage) bool {
	if len(c.Interleavings) != len(o.Interleavings) ||
		len(c.Classes) != len(o.Classes) ||
		len(c.Behaviors) != len(o.Behaviors) ||
		c.DupSchedules != o.DupSchedules ||
		len(c.Series) != len(o.Series) {
		return false
	}
	for h, n := range c.Interleavings {
		if o.Interleavings[h] != n {
			return false
		}
	}
	for h, n := range c.Classes {
		if o.Classes[h] != n {
			return false
		}
	}
	for b, n := range c.Behaviors {
		if o.Behaviors[b] != n {
			return false
		}
	}
	for i, p := range c.Series {
		if o.Series[i] != p {
			return false
		}
	}
	return true
}

// FirstBugObs converts the sessions to right-censored observations for the
// log-rank test: censored at limit(+1 for profiled algorithms) when no bug
// was found.
func (r *Result) FirstBugObs() []stats.Obs {
	obs := make([]stats.Obs, 0, len(r.Sessions))
	for _, s := range r.Sessions {
		if s.FirstBug >= 0 {
			obs = append(obs, stats.Obs{Time: float64(s.FirstBug), Event: true})
		} else {
			obs = append(obs, stats.Obs{Time: float64(r.Limit + 1), Event: false})
		}
	}
	return obs
}

// FirstBugSummary summarizes schedules-to-first-bug over the sessions that
// found the bug; found reports how many did.
func (r *Result) FirstBugSummary() (sum stats.Summary, found int) {
	var xs []float64
	for _, s := range r.Sessions {
		if s.FirstBug >= 0 {
			xs = append(xs, float64(s.FirstBug))
			found++
		}
	}
	return stats.Summarize(xs), found
}

// FoundEver reports whether any session exposed a bug.
func (r *Result) FoundEver() bool {
	for _, s := range r.Sessions {
		if s.FirstBug >= 0 {
			return true
		}
	}
	return false
}

// FoundAll reports whether every session exposed a bug.
func (r *Result) FoundAll() bool {
	for _, s := range r.Sessions {
		if s.FirstBug < 0 {
			return false
		}
	}
	return len(r.Sessions) > 0
}

// DistinctBugs returns the union of bug IDs across sessions.
func (r *Result) DistinctBugs() map[string]bool {
	out := make(map[string]bool)
	for _, s := range r.Sessions {
		for id := range s.Bugs {
			out[id] = true
		}
	}
	return out
}

// MeanCoverageSeries averages the per-session coverage curves pointwise and
// returns (schedules, mean interleavings, std, mean behaviours, std) rows.
// Sessions must share a series shape (same Config).
func (r *Result) MeanCoverageSeries() []CovSeriesPoint {
	if len(r.Sessions) == 0 || r.Sessions[0].Cov == nil {
		return nil
	}
	n := len(r.Sessions[0].Cov.Series)
	out := make([]CovSeriesPoint, 0, n)
	for i := 0; i < n; i++ {
		var ilv, beh []float64
		sch := 0
		for _, s := range r.Sessions {
			if s.Cov == nil || i >= len(s.Cov.Series) {
				continue
			}
			p := s.Cov.Series[i]
			sch = p.Schedules
			ilv = append(ilv, float64(p.Interleavings))
			beh = append(beh, float64(p.Behaviors))
		}
		si, sb := stats.Summarize(ilv), stats.Summarize(beh)
		out = append(out, CovSeriesPoint{
			Schedules: sch,
			IlvMean:   si.Mean, IlvStd: si.Std,
			BehMean: sb.Mean, BehStd: sb.Std,
		})
	}
	return out
}

// CovSeriesPoint is one aggregated point of Figure 5's curves.
type CovSeriesPoint struct {
	Schedules       int
	IlvMean, IlvStd float64
	BehMean, BehStd float64
}

// EntropySummary aggregates the per-session entropies (Table 3 rows).
func (r *Result) EntropySummary() (ilv, beh stats.Summary) {
	var is, bs []float64
	for _, s := range r.Sessions {
		if s.Cov == nil {
			continue
		}
		is = append(is, s.Cov.InterleavingEntropy())
		bs = append(bs, s.Cov.BehaviorEntropy())
	}
	return stats.Summarize(is), stats.Summarize(bs)
}
