package sched

// Scheduling-decision tracing: the substrate-side half of the observability
// layer and the engine's only observer hook (package internal/obs holds the
// collector, exporters, and metrics; internal/atlas the depth profile).
//
// The hook is designed so the disabled path costs exactly one predictable
// nil-check per event and zero allocations: Options.Tracer is copied into
// the Execution at reset, the Decision value is built on the stack, and no
// tracer state is touched unless a tracer is installed. The regression gate
// in ci.sh holds the disabled path to the same allocs/schedule as a build
// without the hook.
//
// The enabled path is the production path: the batched engine fires Decide
// from execute (fast.go) — for every step, a replayed forced step of a
// checkpointed prefix included — on the deciding goroutine, so a traced
// session keeps inline continuation, deferred priming and its prefix
// checkpoint, at any thread count. The slow loop, run only under
// Options.DisableBatching, fires the same calls with the same arguments —
// crosscheck's decision-stream oracle holds the two equal.
// What a tracer costs is then what its Decide does; ci.sh gates
// obs.MetricsTracer at 1.3x an unobserved schedule.

// Decision describes one scheduling decision: at step Step, thread Chosen
// (out of Enabled candidates) executed Event. Consulted reports whether the
// algorithm's Next was asked (the scheduler fast-paths singleton enabled
// sets and nil algorithms, which still count as decisions but involve no
// choice).
type Decision struct {
	Step      int      // 0-based step index within the schedule
	Chosen    ThreadID // thread whose event executes
	Enabled   int      // size of the enabled set the choice was made from
	Consulted bool     // whether Algorithm.Next was consulted
	Event     Event    // the event about to execute
}

// Tracer observes every scheduling decision of a schedule. Implementations
// must not retain the *State (it is owned by the scheduler and mutates);
// read what you need during the call. A Tracer is used by one Execution at
// a time and needs no internal locking. Its methods run inside the engine
// (Decide usually on a program goroutine): a panic in one is an engine
// panic and reaches the caller of Run, never the schedule's Failure.
//
// Decide fires after the decision is made and the event recorded, but
// before the event executes, so st still reflects the pre-event state: the
// enabled set returned by st.Enabled() is the set the decision was drawn
// from.
type Tracer interface {
	// BeginSchedule fires once per schedule, before any decision, with the
	// algorithm's name ("" when running the nil left-most fallback).
	BeginSchedule(alg string)
	// Decide fires once per executed event.
	Decide(d Decision, st *State)
	// EndSchedule fires once per schedule with the final result (the same
	// value the caller of Run receives). r, and the Failure it points at,
	// are valid only for the call: they may be storage the caller owns and
	// writes the next schedule over (Pool.RunInto), so copy what you keep.
	EndSchedule(r *Result)
}

// Annotator is implemented by algorithms that expose per-decision internal
// state to tracers — e.g. SURW's intended thread and remaining Δ-weights,
// or URW's remaining-event weights. AppendAnnotation appends a short
// human-readable summary to buf and returns the extended slice; reusing the
// caller's buffer keeps annotation capture allocation-free once warm.
type Annotator interface {
	AppendAnnotation(buf []byte, st *State) []byte
}

// AppendAlgAnnotation appends the running algorithm's self-description to
// buf (see Annotator) and returns the extended slice. It returns buf
// unchanged when the algorithm exposes no annotation.
func (s *State) AppendAlgAnnotation(buf []byte) []byte {
	if an, ok := s.ex.alg.(Annotator); ok {
		return an.AppendAnnotation(buf, s)
	}
	return buf
}
