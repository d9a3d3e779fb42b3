// Package sched implements a controlled concurrency scheduler: the substrate
// on which all scheduling algorithms in this repository run.
//
// Programs under test are written against this package's virtual-thread API
// (Thread, Var, Mutex, Cond, Semaphore). Execution is fully serialized: at
// any moment exactly one virtual thread runs, and it runs exactly one atomic
// event (a shared-memory access, a synchronization operation, a spawn/join,
// or a yield) before control returns to the scheduler. Before each event the
// scheduler can observe the *next* event of every live thread and ask a
// pluggable Algorithm to choose which enabled thread proceeds. This is the
// same serialization discipline the SURW paper's pthread-interposition layer
// enforces, so the interleaving space explored here is the same kind of
// object the paper's Algorithms 1 and 2 are defined over.
//
// Executions are deterministic given (program, algorithm, seed): the
// scheduler never consults wall-clock time, OS scheduling, or map iteration
// order on any decision path.
package sched

import "fmt"

// ThreadID identifies a thread within a single execution. IDs are assigned
// in creation order starting from 0 (the root thread). Because creation
// order can depend on the schedule, cross-schedule thread identity uses the
// stable Path (see Thread.Path) instead.
type ThreadID = int

// ObjID identifies a shared object (variable, mutex, condition variable or
// semaphore) within a single execution. 0 means "no object".
type ObjID int32

// OpKind classifies the atomic events a virtual thread can perform.
type OpKind uint8

// The event vocabulary. OpWait releases the associated mutex and puts the
// thread to sleep; a subsequent OpWakeLock (created by OpSignal/OpBroadcast)
// reacquires the mutex.
const (
	OpInvalid   OpKind = iota
	OpRead             // shared variable read
	OpWrite            // shared variable write
	OpRMW              // shared variable read-modify-write (Add, CAS, Swap)
	OpLock             // mutex acquire
	OpUnlock           // mutex release
	OpWait             // condition wait: release mutex and sleep
	OpWakeLock         // reacquire mutex after a signal
	OpSignal           // condition signal
	OpBroadcast        // condition broadcast
	OpSemP             // semaphore down (blocks while count == 0)
	OpSemV             // semaphore up
	OpJoin             // wait for a thread to finish
	OpYield            // scheduling point with no shared object
	OpRLock            // reader acquire (blocks while a writer holds)
	OpRUnlock          // reader release
)

// Thread creation is deliberately *not* an event: as in the paper's
// pthread-interposition runtime, a parent runs straight through Go calls
// until its next instrumented operation, and the child simply becomes
// schedulable. Algorithms that track the spawn tree (URW/SURW) implement
// SpawnObserver to be told about creations.

var opNames = [...]string{
	OpInvalid:   "invalid",
	OpRead:      "read",
	OpWrite:     "write",
	OpRMW:       "rmw",
	OpLock:      "lock",
	OpUnlock:    "unlock",
	OpWait:      "wait",
	OpWakeLock:  "wakelock",
	OpSignal:    "signal",
	OpBroadcast: "broadcast",
	OpSemP:      "semP",
	OpSemV:      "semV",
	OpJoin:      "join",
	OpYield:     "yield",
	OpRLock:     "rlock",
	OpRUnlock:   "runlock",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// IsMemAccess reports whether k is a shared-variable access.
func (k OpKind) IsMemAccess() bool { return k == OpRead || k == OpWrite || k == OpRMW }

// IsWrite reports whether k can modify a shared variable.
func (k OpKind) IsWrite() bool { return k == OpWrite || k == OpRMW }

// ObjKind classifies shared objects.
type ObjKind uint8

// Shared object kinds.
const (
	ObjNone ObjKind = iota
	ObjVar          // Var or Ref (shared memory)
	ObjMutex
	ObjCond
	ObjSem
)

func (k ObjKind) String() string {
	switch k {
	case ObjVar:
		return "var"
	case ObjMutex:
		return "mutex"
	case ObjCond:
		return "cond"
	case ObjSem:
		return "sem"
	}
	return "none"
}

// Event is one atomic step of one thread. Seq is the 1-based per-thread
// operation counter; PathHash is a stable 64-bit hash of the executing
// thread's Path, and ObjHash a stable hash of the object's name, so events
// can be fingerprinted across schedules without string work.
type Event struct {
	TID      ThreadID
	Seq      int
	Kind     OpKind
	Obj      ObjID
	PathHash uint64
	ObjHash  uint64
}

func (e Event) String() string {
	if e.Obj == 0 {
		return fmt.Sprintf("T%d#%d:%s", e.TID, e.Seq, e.Kind)
	}
	return fmt.Sprintf("T%d#%d:%s(o%d)", e.TID, e.Seq, e.Kind, e.Obj)
}

// Conflicts reports whether two events race in the POS sense: accesses to
// the same shared variable from different threads, at least one a write, or
// acquisitions of the same mutex from different threads.
func (e Event) Conflicts(f Event) bool {
	if e.TID == f.TID || e.Obj != f.Obj || e.Obj == 0 {
		return false
	}
	if e.Kind.IsMemAccess() && f.Kind.IsMemAccess() {
		return e.Kind.IsWrite() || f.Kind.IsWrite()
	}
	if e.Kind == OpLock && f.Kind == OpLock {
		return true
	}
	// Writer acquisitions race with reader acquisitions (but readers
	// don't race with each other).
	return (e.Kind == OpLock && f.Kind == OpRLock) || (e.Kind == OpRLock && f.Kind == OpLock)
}

// FailKind classifies schedule failures.
type FailKind uint8

// Failure kinds. FailAssert and FailDeadlock are the bug classes the
// benchmarks use; FailPanic captures unexpected program panics.
const (
	FailAssert FailKind = iota + 1
	FailDeadlock
	FailPanic
)

func (k FailKind) String() string {
	switch k {
	case FailAssert:
		return "assert"
	case FailDeadlock:
		return "deadlock"
	case FailPanic:
		return "panic"
	}
	return "unknown"
}

// Failure describes the first bug manifestation observed in a schedule.
type Failure struct {
	Kind  FailKind
	BugID string // stable identity of the bug (assert ID, "deadlock", ...)
	Msg   string
	TID   ThreadID
	Step  int
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s[%s] at step %d on T%d: %s", f.Kind, f.BugID, f.Step, f.TID, f.Msg)
}

// Result summarizes one schedule.
type Result struct {
	// Failure is non-nil if the schedule exposed a bug.
	Failure *Failure
	// Steps is the number of events executed.
	Steps int
	// Truncated is set when the step budget ran out before the program
	// finished (the schedule is inconclusive, not buggy).
	Truncated bool
	// InterleavingHash fingerprints the sequence of events that passed
	// Options.TraceFilter (all events by default). Two schedules with equal
	// hashes witnessed the same (filtered) interleaving.
	InterleavingHash uint64
	// ClassHash is the commutation-canonical (Mazurkiewicz-trace) class
	// fingerprint: it is order-sensitive only across *dependent* event
	// pairs — same-object accesses where at least one side is writer-like,
	// spawn/join edges, and program order — so two schedules that differ
	// only by commuting adjacent independent events share a ClassHash.
	// Unlike InterleavingHash it ignores Options.TraceFilter: the class is
	// a property of the full schedule. See DESIGN.md §11 for the
	// dependence relation and the incremental hash-clock construction.
	ClassHash uint64
	// DeltaHash fingerprints the subsequence of interesting events, when the
	// algorithm ran with a ProgramInfo carrying an Interesting predicate.
	DeltaHash uint64
	// Behavior is the program-reported behaviour fingerprint (see
	// Thread.SetBehavior); empty if the program never reported one.
	Behavior string
	// Trace is the full event sequence, recorded only when
	// Options.RecordTrace is set.
	Trace []Event
	// Threads is the number of threads created.
	Threads int

	// failure is what Failure points at when the schedule failed: the
	// report lives in the Result, so a caller that owns the Result (see
	// Pool.RunInto) owns the whole outcome.
	failure Failure
}

// Buggy reports whether the schedule exposed a bug.
func (r *Result) Buggy() bool { return r.Failure != nil }

// BugID returns the failure's bug identity, or "" if the schedule passed.
func (r *Result) BugID() string {
	if r.Failure == nil {
		return ""
	}
	return r.Failure.BugID
}

// Base is the option set every schedule-running entry point shares —
// surw.Options, this package's Options, and profile.Options embed it, so
// the seed/budget plumbing between the layers is one struct copy instead
// of three hand-maintained field lists.
type Base struct {
	// Seed seeds the algorithm's random stream. Schedules with equal
	// (program, algorithm, Seed, ProgSeed) are identical.
	Seed int64
	// ProgSeed seeds the program's own random stream (Thread.ProgRand),
	// used for fixed randomized inputs that must stay constant across the
	// schedules of one trial.
	ProgSeed int64
	// MaxSteps bounds the schedule length; 0 means DefaultMaxSteps.
	MaxSteps int
}

// Normalized applies the cross-layer defaults (MaxSteps 0 →
// DefaultMaxSteps). Seed is deliberately left as given: at this layer 0 is
// a valid seed; the surw layer's normalized() additionally defaults it.
func (b Base) Normalized() Base {
	if b.MaxSteps <= 0 {
		b.MaxSteps = DefaultMaxSteps
	}
	return b
}

// Options configures one schedule.
type Options struct {
	// Base carries the shared Seed/ProgSeed/MaxSteps fields.
	Base
	// Info is the profiling information handed to the algorithm's Begin.
	Info *ProgramInfo
	// RecordTrace stores the full event sequence in Result.Trace.
	RecordTrace bool
	// TraceFilter restricts which events fold into Result.InterleavingHash;
	// nil includes every event.
	TraceFilter func(Event) bool
	// Tracer, when non-nil, observes every scheduling decision (see the
	// Decision type; internal/obs and internal/atlas hold the tracers the
	// runner attaches). It is the engine's only observer hook. A nil
	// Tracer costs one predictable branch per event and nothing else, and
	// an installed Tracer never changes which threads are scheduled — nor
	// which engine schedules them: the batched engine (fast.go) calls it
	// at every step, checkpointed prefixes included.
	Tracer Tracer
	// DisableBatching forces the slow scheduling loop. Results — and what
	// a Tracer is shown — are bit-identical either way; this exists for
	// A/B verification and benchmarking of the fast engine (fast.go).
	DisableBatching bool
}

// DefaultMaxSteps is the schedule step budget when Options.MaxSteps is 0.
const DefaultMaxSteps = 200_000
