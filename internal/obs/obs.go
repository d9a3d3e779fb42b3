// Package obs is the observability layer: zero-cost-when-disabled
// instrumentation for the controlled scheduler and everything above it.
//
// It supplies the ready-made implementations of the sched.Tracer hook —
//
//   - Collector: a pooled ring buffer of scheduling decisions (step, chosen
//     thread, enabled-set size, event, algorithm annotation), exportable as
//     Chrome trace_event JSON so any interleaving opens in Perfetto with
//     one track per virtual thread (export.go), and as a flight record's
//     last decisions;
//   - Metrics: a concurrency-safe aggregator of schedules/sec, steps and
//     allocs per schedule, truncation rate, per-algorithm pick-entropy and
//     branching-factor histograms, and worker utilization, rendered as a
//     Prometheus-style text page (metrics.go);
//   - FlightRecord: the first-failure flight recorder dumped by the runner
//     and replayed bit-exactly by `surw run -replay-flight` (flight.go);
//
// plus the benchmark-output parser and regression gates behind `make bench`
// and ci.sh (bench.go).
//
// Everything here is strictly observational: attaching any of it never
// changes which threads are scheduled, so traced and untraced runs of the
// same (program, algorithm, seed) witness the same interleaving.
package obs

import (
	"surw/internal/sched"
)

// FlightRingSize is the number of trailing decisions a flight record keeps
// (the "last-N decisions" window).
const FlightRingSize = 256

// Record is one captured scheduling decision. Path and Obj are the
// scheduler's interned strings, so capturing them does not allocate; the
// annotation lives in a per-slot buffer the ring recycles.
type Record struct {
	Step      int
	TID       int
	Seq       int
	Enabled   int
	Consulted bool
	Kind      sched.OpKind
	Obj       string // shared-object name, "" for yield/join
	Path      string // stable logical path of the chosen thread

	annot []byte // recycled per-slot annotation buffer
}

// Annot returns the algorithm annotation captured with the decision ("" if
// the algorithm exposes none).
func (r *Record) Annot() string { return string(r.annot) }

// Collector implements sched.Tracer: it records every scheduling decision
// of the current schedule into a pooled ring buffer. With RingCap > 0 only
// the last RingCap decisions are kept (the flight-recorder configuration);
// with RingCap <= 0 the collector keeps every decision (the trace-export
// configuration). Either way the record slots — including their annotation
// buffers — are recycled across schedules, so steady-state collection
// allocates only when a schedule outgrows every previous one.
//
// A Collector serves one Execution at a time (like the scheduler itself it
// is single-goroutine); give each parallel session its own.
type Collector struct {
	ringCap int
	n       int // decisions seen this schedule
	recs    []Record
	alg     string
	threads int
	paths   []string // path per TID, grown as threads appear
}

// NewCollector returns a collector keeping the last ringCap decisions
// (every decision when ringCap <= 0), each with the algorithm's annotation
// (sched.Annotator).
func NewCollector(ringCap int) *Collector {
	return &Collector{ringCap: ringCap}
}

// BeginSchedule implements sched.Tracer: it rewinds the ring, dropping the
// previous schedule's records while keeping their capacity.
func (c *Collector) BeginSchedule(alg string) {
	c.alg = alg
	c.n = 0
	c.threads = 0
	c.paths = c.paths[:0]
}

// Decide implements sched.Tracer.
func (c *Collector) Decide(d sched.Decision, st *sched.State) {
	var slot *Record
	if c.ringCap > 0 {
		if len(c.recs) < c.ringCap {
			c.recs = append(c.recs, Record{})
		}
		slot = &c.recs[c.n%c.ringCap]
	} else {
		if c.n < len(c.recs) {
			slot = &c.recs[c.n]
		} else {
			c.recs = append(c.recs, Record{})
			slot = &c.recs[len(c.recs)-1]
		}
	}
	c.n++
	annot := st.AppendAlgAnnotation(slot.annot[:0])
	*slot = Record{
		Step:      d.Step,
		TID:       d.Chosen,
		Seq:       d.Event.Seq,
		Enabled:   d.Enabled,
		Consulted: d.Consulted,
		Kind:      d.Event.Kind,
		Obj:       st.ObjName(d.Event.Obj),
		Path:      st.Path(d.Chosen),
		annot:     annot,
	}
	for t := len(c.paths); t < st.NumThreads(); t++ {
		c.paths = append(c.paths, st.Path(t))
	}
}

// EndSchedule implements sched.Tracer. It copies the thread count it
// reports and keeps nothing of r, which is the caller's to overwrite.
func (c *Collector) EndSchedule(r *sched.Result) {
	c.threads = r.Threads
}

// Len returns the number of records currently held (min(decisions seen,
// ring capacity)).
func (c *Collector) Len() int {
	if c.ringCap > 0 && c.n > c.ringCap {
		return c.ringCap
	}
	return c.n
}

// Record returns the i-th held record in decision order (0 = oldest held).
// The pointer is valid until the next schedule begins.
func (c *Collector) Record(i int) *Record {
	if c.ringCap > 0 && c.n > c.ringCap {
		return &c.recs[(c.n+i)%c.ringCap]
	}
	return &c.recs[i]
}

// Algorithm returns the algorithm name of the last collected schedule.
func (c *Collector) Algorithm() string { return c.alg }

// Threads returns the thread count of the last collected schedule.
func (c *Collector) Threads() int { return c.threads }

// ThreadPath returns the logical path of a TID seen during collection.
func (c *Collector) ThreadPath(tid int) string {
	if tid < len(c.paths) {
		return c.paths[tid]
	}
	return ""
}
