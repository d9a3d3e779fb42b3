package obs

// Metrics: a concurrency-safe aggregator for everything the runner can
// observe without changing results — schedule throughput, steps/allocs per
// schedule, truncation rate, per-algorithm decision histograms (branching
// factor and pick position, with the pick entropy derived from the
// latter), and worker utilization (the "session" latency histogram's busy
// time over the pool capacity BatchDone reports). Rendered as a
// Prometheus-style text page (WritePrometheus) and as one-line summaries
// embedded in experiment reports (Summary).

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surw/internal/sched"
	"surw/internal/stats"
)

// histBuckets is the number of exact histogram buckets; index 0 is unused
// for branching (an enabled set is never empty) and the last bucket
// accumulates everything >= histBuckets-1.
const histBuckets = 17

// AlgStats accumulates per-algorithm decision histograms. All fields are
// atomically updated; read them through Metrics.Snapshot.
type AlgStats struct {
	decisions atomic.Int64              // consulted decisions
	branch    [histBuckets]atomic.Int64 // enabled-set size at consulted decisions
	pick      [histBuckets]atomic.Int64 // position of the chosen thread in Enabled()
}

func bucket(n int) int { return min(n, histBuckets-1) }

// Metrics aggregates observability counters across the sessions of any
// number of RunTarget batches. Everything per schedule reaches it through
// the one hook the engine has: the MetricsTracer each session attaches
// (Tracer), whose EndSchedule counts the schedule once. The zero value is
// not ready: use NewMetrics, which snapshots the process allocation
// counter so allocs/schedule can be reported as a delta. All methods are
// safe for concurrent use.
type Metrics struct {
	start    time.Time
	mallocs0 uint64

	schedules atomic.Int64
	steps     atomic.Int64
	truncated atomic.Int64
	buggy     atomic.Int64

	cap_ atomic.Int64 // summed workers*wall nanos of BatchDone calls

	lat LatencySet

	mu   sync.Mutex
	algs map[string]*AlgStats
}

// NewMetrics returns an empty aggregator anchored at the current time and
// allocation count.
func NewMetrics() *Metrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Metrics{start: time.Now(), mallocs0: ms.Mallocs, algs: make(map[string]*AlgStats)}
}

// algStats returns (creating if needed) the histogram block for alg.
func (m *Metrics) algStats(alg string) *AlgStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.algs[alg]
	if s == nil {
		s = &AlgStats{}
		m.algs[alg] = s
	}
	return s
}

// Tracer returns a sched.Tracer that feeds this aggregator's schedule
// counts and per-algorithm decision histograms. Each concurrent session
// needs its own tracer (the scheduler contract); all of them fold into the
// shared Metrics.
func (m *Metrics) Tracer() *MetricsTracer { return &MetricsTracer{m: m} }

// MetricsTracer is the per-session decision observer handed out by
// Metrics.Tracer. Decide counts into the tracer's own plain fields — a
// tracer serves one Execution at a time — and EndSchedule publishes the
// schedule and its decision counts into the shared Metrics and AlgStats,
// so the cache lines every worker of a cell shares are written a few times
// per schedule, not three times per decision.
type MetricsTracer struct {
	m     *Metrics
	alg   string    // name stats was resolved for
	stats *AlgStats // resolved once per algorithm name, not per schedule

	decisions int64
	branch    [histBuckets]int64
	pick      [histBuckets]int64
}

// BeginSchedule implements sched.Tracer. A session runs one algorithm, so
// after the first schedule this is a string compare: no lock, no map.
func (t *MetricsTracer) BeginSchedule(alg string) {
	if t.stats == nil || alg != t.alg {
		t.alg, t.stats = alg, t.m.algStats(alg)
	}
}

// Decide implements sched.Tracer: consulted decisions feed the branching
// histogram (how many threads were enabled) and the pick histogram (the
// position of the chosen thread within the sorted enabled set — under an
// unbiased policy on a symmetric workload, positions are hit uniformly).
func (t *MetricsTracer) Decide(d sched.Decision, st *sched.State) {
	if !d.Consulted {
		return
	}
	t.decisions++
	t.branch[bucket(d.Enabled)]++
	if pos := st.EnabledRank(d.Chosen); pos >= 0 {
		t.pick[bucket(pos)]++
	}
}

// EndSchedule implements sched.Tracer: it counts the schedule — its steps,
// whether it was truncated, whether it found a bug — and moves its
// decision counts into the shared histograms, touching only the buckets
// the schedule hit.
func (t *MetricsTracer) EndSchedule(r *sched.Result) {
	m := t.m
	m.schedules.Add(1)
	m.steps.Add(int64(r.Steps))
	if r.Truncated {
		m.truncated.Add(1)
	}
	if r.Buggy() {
		m.buggy.Add(1)
	}
	if t.decisions == 0 {
		return
	}
	t.stats.decisions.Add(t.decisions)
	t.decisions = 0
	for i := range t.branch {
		if n := t.branch[i]; n != 0 {
			t.stats.branch[i].Add(n)
			t.branch[i] = 0
		}
		if n := t.pick[i]; n != 0 {
			t.stats.pick[i].Add(n)
			t.pick[i] = 0
		}
	}
}

// Latency returns the named latency histogram (creating it if needed).
// Callers on repeated paths grab the *Histogram once and hold it.
func (m *Metrics) Latency(op string) *Histogram { return m.lat.Hist(op) }

// BatchDone records a pool of `workers` workers that ran for `wall` of
// wall-clock time: the capacity the "session" histogram's busy time is
// measured against.
func (m *Metrics) BatchDone(workers int, wall time.Duration) {
	m.cap_.Add(int64(workers) * int64(wall))
}

// AlgSnapshot is the per-algorithm slice of a Snapshot.
type AlgSnapshot struct {
	Algorithm   string
	Decisions   int64
	Branch      [histBuckets]int64
	Pick        [histBuckets]int64
	PickEntropy float64 // bits; entropy of the pick-position distribution
	MeanBranch  float64 // mean enabled-set size at consulted decisions
}

// Snapshot is a consistent-enough copy of the aggregate with the derived
// rates computed.
type Snapshot struct {
	Schedules       int64
	Steps           int64
	Truncated       int64
	Buggy           int64
	Elapsed         time.Duration
	SchedulesPerSec float64
	StepsPerSched   float64
	AllocsPerSched  float64 // process-wide Mallocs delta / schedules
	TruncationRate  float64
	WorkerBusy      time.Duration // the "session" histogram's sum
	WorkerItems     int64         // the "session" histogram's count
	Utilization     float64       // busy time / (workers x wall) over BatchDone calls
	Algorithms      []AlgSnapshot
	Latencies       []LatencySnap
}

// Snapshot computes the current aggregate.
func (m *Metrics) Snapshot() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	session := m.Latency("session")
	s := Snapshot{
		Schedules:   m.schedules.Load(),
		Steps:       m.steps.Load(),
		Truncated:   m.truncated.Load(),
		Buggy:       m.buggy.Load(),
		Elapsed:     time.Since(m.start),
		WorkerBusy:  time.Duration(session.sum.Load()),
		WorkerItems: int64(session.Count()),
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.SchedulesPerSec = float64(s.Schedules) / sec
	}
	if s.Schedules > 0 {
		s.StepsPerSched = float64(s.Steps) / float64(s.Schedules)
		s.AllocsPerSched = float64(ms.Mallocs-m.mallocs0) / float64(s.Schedules)
		s.TruncationRate = float64(s.Truncated) / float64(s.Schedules)
	}
	if c := m.cap_.Load(); c > 0 {
		s.Utilization = float64(s.WorkerBusy) / float64(c)
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.algs))
	for name := range m.algs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := m.algs[name]
		as := AlgSnapshot{Algorithm: name, Decisions: a.decisions.Load()}
		var total, weighted int64
		for i := 0; i < histBuckets; i++ {
			as.Branch[i] = a.branch[i].Load()
			as.Pick[i] = a.pick[i].Load()
			total += as.Pick[i]
			weighted += int64(i) * as.Branch[i]
		}
		if as.Decisions > 0 {
			as.MeanBranch = float64(weighted) / float64(as.Decisions)
		}
		as.PickEntropy = stats.EntropyBits(as.Pick[:])
		s.Algorithms = append(s.Algorithms, as)
	}
	m.mu.Unlock()
	s.Latencies = m.lat.Snapshots()
	return s
}

// Summary renders a one-line digest for embedding in report footers.
func (m *Metrics) Summary() string {
	s := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "obs: %d schedules (%.0f/s), %.1f steps/schedule, %.1f allocs/schedule, %.2f%% truncated",
		s.Schedules, s.SchedulesPerSec, s.StepsPerSched, s.AllocsPerSched, 100*s.TruncationRate)
	if s.Utilization > 0 {
		fmt.Fprintf(&b, ", %.0f%% worker utilization", 100*s.Utilization)
	}
	return b.String()
}

// Handler returns an http.Handler serving the Prometheus text page.
func (m *Metrics) Handler() http.Handler { return PromHandler(m.WritePrometheus) }

// WritePrometheus renders the current aggregate as a Prometheus
// text-format page.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.Snapshot().WritePrometheus(w) }

// WritePrometheus renders the snapshot as a Prometheus text-format page.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var p Prom
	p.Counter("surw_schedules_total", "Schedules executed.").Int(s.Schedules)
	p.Counter("surw_steps_total", "Scheduler events executed.").Int(s.Steps)
	p.Counter("surw_truncated_total", "Schedules that hit the step budget.").Int(s.Truncated)
	p.Counter("surw_buggy_total", "Schedules that exposed a bug.").Int(s.Buggy)
	p.Gauge("surw_schedules_per_second", "Schedule throughput since NewMetrics.").Float(s.SchedulesPerSec)
	p.Gauge("surw_steps_per_schedule", "Mean events per schedule.").Float(s.StepsPerSched)
	p.Gauge("surw_allocs_per_schedule", "Process-wide heap allocations per schedule.").Float(s.AllocsPerSched)
	p.Gauge("surw_truncation_rate", "Fraction of schedules truncated by the step budget.").Float(s.TruncationRate)
	p.Counter("surw_worker_busy_seconds_total", "Summed session busy time (the session latency histogram's sum).").Float(s.WorkerBusy.Seconds())
	p.Gauge("surw_worker_utilization", "Session busy time over workers x wall of the BatchDone pools.").Float(s.Utilization)
	decisions := p.Counter("surw_decisions_total", "Consulted scheduling decisions.")
	entropy := p.Gauge("surw_pick_entropy_bits", "Entropy of the pick-position distribution.")
	branching := p.Gauge("surw_mean_branching", "Mean enabled-set size at consulted decisions.")
	branch := p.Counter("surw_branching_decisions_total", fmt.Sprintf("Consulted decisions by enabled-set size (last bucket is %d+).", histBuckets-1))
	pick := p.Counter("surw_pick_position_total", "Consulted decisions by chosen position in the enabled set.")
	for _, a := range s.Algorithms {
		decisions.Int(a.Decisions, "alg", a.Algorithm)
		entropy.Float(a.PickEntropy, "alg", a.Algorithm)
		branching.Float(a.MeanBranch, "alg", a.Algorithm)
		for i := 0; i < histBuckets; i++ {
			// An enabled set is never empty: branch bucket 0 is unused.
			if i > 0 && a.Branch[i] > 0 {
				branch.Int(a.Branch[i], "alg", a.Algorithm, "enabled", strconv.Itoa(i))
			}
			if a.Pick[i] > 0 {
				pick.Int(a.Pick[i], "alg", a.Algorithm, "pos", strconv.Itoa(i))
			}
		}
	}
	p.Histogram("surw_latency_seconds",
		"Operation latency (log2 buckets): lease_rpc, queue_wait, session, checkpoint_fork, submit.",
		s.Latencies)
	return p.Flush(w)
}
