// Package surw is a controlled concurrency testing library for Go,
// reproducing "Selectively Uniform Concurrency Testing" (ASPLOS 2025).
//
// Programs under test are written against the virtual-thread API — Thread,
// Var and the generic Ref[E] for shared state, Chan[E] for Go-style
// channels, and Mutex, RWMutex, Cond, Semaphore, WaitGroup, Once for
// synchronization: every shared-memory or synchronization operation is an
// atomic event, execution is fully serialized, and a pluggable scheduling
// algorithm decides which thread runs each event. Schedules are
// deterministic given their seed, so any bug found is replayable.
//
// Existing code written against the standard library need not be rewritten
// by hand: the surw/surwsync subpackage is a drop-in sync/channel frontend
// (surwsync.Mutex, surwsync.Chan[T], surwsync.Go, ...) and `surw port`
// rewrites stdlib concurrency onto it mechanically.
//
// The flagship algorithm is SURW (Selectively Uniform Random Walk): given a
// subset Δ of interesting events with per-thread count estimates, it
// samples the interleavings of Δ uniformly while keeping every full
// interleaving reachable. The package also provides the URW special case
// and the standard baselines (Random Walk, PCT, POS).
//
// Quick start:
//
//	report, err := surw.Test(func(t *surw.Thread) {
//	    c := t.NewVar("c", 0)
//	    done := surw.NewChan[int](t, "done", 2)
//	    t.Go(func(w *surw.Thread) { c.Store(w, c.Load(w)+1); done.Send(w, 1) })
//	    t.Go(func(w *surw.Thread) { c.Store(w, c.Load(w)+1); done.Send(w, 1) })
//	    done.Recv(t)
//	    done.Recv(t)
//	    t.Assert(c.Peek() == 2, "lost-update")
//	}, surw.Options{Schedules: 1000})
//
// Structured values travel through surw.NewRef[E] cells and surw.NewChan[E]
// channels the same way: every access decomposes into scheduled events.
//
// Test profiles the program once, picks an interesting-event subset with
// the paper's single-shared-variable heuristic (re-drawn each schedule),
// and hunts for a failing schedule with SURW.
package surw

import (
	"context"
	"fmt"
	"math/rand"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/replay"
	"surw/internal/sched"
	"surw/internal/stats"
)

// Re-exported program-authoring API. See the sched package for full
// documentation of each type.
type (
	// Thread is a virtual thread of the program under test.
	Thread = sched.Thread
	// Handle names a spawned thread for joining.
	Handle = sched.Handle
	// Var is a shared int64 variable; every access is a scheduled event.
	Var = sched.Var
	// Mutex is a non-reentrant lock.
	Mutex = sched.Mutex
	// RWMutex is a readers-writer lock.
	RWMutex = sched.RWMutex
	// WaitGroup mirrors sync.WaitGroup: Wait blocks until the counter is zero.
	WaitGroup = sched.WaitGroup
	// Once mirrors sync.Once: Do runs its function exactly once.
	Once = sched.Once
	// Cond is a condition variable without spurious wakeups.
	Cond = sched.Cond
	// Semaphore is a counting semaphore.
	Semaphore = sched.Semaphore
	// Event is one atomic step of one thread.
	Event = sched.Event
	// Result summarizes one schedule.
	Result = sched.Result
	// Failure describes a bug manifestation.
	Failure = sched.Failure
	// Algorithm is a pluggable scheduling policy.
	Algorithm = sched.Algorithm
	// ProgramInfo carries per-thread event-count estimates and the Δ set.
	ProgramInfo = sched.ProgramInfo
	// RunOptions configures a single schedule.
	RunOptions = sched.Options
	// EventLog records a schedule's full event sequence when attached as
	// RunOptions.Tracer.
	EventLog = sched.EventLog
	// Profile is the census a profiling run produces.
	Profile = profile.Profile
	// ProfileOptions configures Collect.
	ProfileOptions = profile.Options
	// Selection is a chosen interesting-event subset Δ.
	Selection = profile.Selection
)

// HashName returns the stable hash used for Event.ObjHash and
// Event.PathHash, for writing Δ predicates and trace filters.
func HashName(name string) uint64 { return sched.HashName(name) }

// NewRef creates a shared cell holding an arbitrary value; every access is
// a scheduled event.
func NewRef[E any](t *Thread, name string, init E) *sched.Ref[E] {
	return sched.NewRef[E](t, name, init)
}

// NewChan creates a Go-style channel (capacity 0 = unbuffered rendezvous)
// whose sends and receives decompose into scheduled events.
func NewChan[E any](t *Thread, name string, capacity int) *sched.Chan[E] {
	return sched.NewChan[E](t, name, capacity)
}

// Algorithm constructors.
var (
	// NewSURW returns the paper's Algorithm 2.
	NewSURW = core.NewSURW
	// NewURW returns Algorithm 1 (uniform random walk by remaining counts).
	NewURW = core.NewURW
	// NewRandomWalk returns the naive uniform-choice baseline.
	NewRandomWalk = core.NewRandomWalk
	// NewPOS returns Partial Order Sampling.
	NewPOS = core.NewPOS
	// NewPCT returns Probabilistic Concurrency Testing with the given depth.
	NewPCT = core.NewPCT
	// NewAlgorithm resolves an algorithm by report name ("SURW", "PCT-3",
	// "POS", "RW", "URW", "N-U", "N-S").
	NewAlgorithm = core.New
)

// Run executes one schedule of prog under alg. A nil algorithm runs the
// deterministic leftmost schedule.
func Run(prog func(*Thread), alg Algorithm, opts RunOptions) *Result {
	return sched.Run(prog, alg, opts)
}

// Collect performs the profiling run(s) for prog: per-thread event counts,
// the spawn tree, and a census of shared objects.
func Collect(prog func(*Thread), opts ProfileOptions) (*Profile, error) {
	return profile.Collect(prog, opts)
}

// Base is the option set shared by every schedule-running entry point:
// Options, RunOptions, and ProfileOptions all embed it, so Seed (default 1
// at this layer), ProgSeed, and MaxSteps plumb through the layers as one
// struct copy.
type Base = sched.Base

// Options configures Test and Explore.
type Options struct {
	// Base carries the shared Seed/ProgSeed/MaxSteps fields (see Base).
	Base
	// Schedules is the testing budget (default 1000).
	Schedules int
	// Algorithm names the scheduler (default "SURW").
	Algorithm string
	// Select overrides the per-schedule Δ choice; nil uses the paper's
	// single-shared-variable heuristic.
	Select func(p *Profile, rng *rand.Rand) (Selection, bool)
	// TraceFilter restricts which events fold into each schedule's
	// interleaving fingerprint (Explore's coverage unit); nil keeps all.
	TraceFilter func(Event) bool
	// Context, when non-nil, cancels the run between schedules: Test and
	// Explore return their partial results together with the context's
	// error. TestContext and ExploreContext are shorthands that set it.
	Context context.Context
}

// normalized is the one place the driver defaults are applied: the shared
// Base defaults plus this layer's Schedules/Algorithm/Seed fallbacks.
// Every entry point (Test, Explore, Replay, NewSession) flows through it.
func (o Options) normalized() Options {
	o.Base = o.Base.Normalized()
	if o.Schedules <= 0 {
		o.Schedules = 1000
	}
	if o.Algorithm == "" {
		o.Algorithm = "SURW"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Report is the outcome of Test.
type Report struct {
	// Failure is the first bug found, or nil.
	Failure *Failure
	// Schedule is the 1-based index of the failing schedule, or -1. The
	// profiling run counts as one for the algorithms that read its counts
	// (the paper's accounting); RW and POS take none.
	Schedule int
	// Seed replays the failing schedule via Replay.
	Seed int64
	// Delta describes the interesting-event subset active when the bug
	// fired, "" for an algorithm that takes no Δ.
	Delta string
	// Schedules is the number of testing schedules executed.
	Schedules int
}

// Found reports whether a bug was found.
func (r *Report) Found() bool { return r.Failure != nil }

// Test hunts for a failing schedule of prog: it profiles once (for an
// algorithm that reads counts), then runs up to opts.Schedules schedules
// under the chosen algorithm, re-drawing Δ per schedule for the selective
// algorithms. The error is non-nil only for
// configuration problems (unknown algorithm) or a cancelled Options.Context
// (in which case the partial report accompanies it); "no bug found" is
// reported via Report.Found. Test is a thin wrapper over Session.
func Test(prog func(*Thread), opts Options) (*Report, error) {
	s, err := NewSession(prog, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Test()
}

// TestContext is Test with an explicit cancellation context: cancelling ctx
// between schedules returns the partial report and the context's error.
func TestContext(ctx context.Context, prog func(*Thread), opts Options) (*Report, error) {
	opts.Context = ctx
	return Test(prog, opts)
}

// Replay re-executes one schedule with the exact options that produced a
// Report's failure, returning its Result and its full event sequence, as an
// EventLog recorded it. It is a thin wrapper over Session: a fresh session
// re-derives the Δ stream up to the failing schedule so the replayed
// schedule sees the same ProgramInfo.
func Replay(prog func(*Thread), rep *Report, opts Options) (*Result, []Event, error) {
	s, err := NewSession(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.Replay(rep.Schedule, rep.Seed)
}

// Recording is a serializable schedule: the choice taken at every
// scheduling decision. See RecordRun / ReplayRecording / MinimizeRecording.
type Recording = replay.Recording

// ParseRecording deserializes a Recording produced by Recording.String.
func ParseRecording(s string) (Recording, error) { return replay.Parse(s) }

// RecordRun executes one schedule under alg while recording every choice,
// so the schedule can be replayed or minimized later — even on another
// machine, via Recording.String.
func RecordRun(prog func(*Thread), alg Algorithm, opts RunOptions) (*Result, Recording) {
	return replay.Record(prog, alg, opts)
}

// ReplayRecording re-executes a recorded schedule exactly. ProgSeed and
// MaxSteps must match the recording run; the scheduling seed is unused.
func ReplayRecording(prog func(*Thread), rec Recording, opts RunOptions) *Result {
	return replay.Replay(prog, rec, opts)
}

// MinimizeRecording shrinks a failing recording while preserving its bug
// ID, flattening preemptive context switches so the failing interleaving
// becomes readable. It returns the minimized recording and the number of
// replays spent.
func MinimizeRecording(prog func(*Thread), rec Recording, bugID string, opts RunOptions, maxAttempts int) (Recording, int) {
	return replay.Minimize(prog, rec, bugID, opts, maxAttempts)
}

// Exploration summarizes a coverage study (see Explore).
type Exploration struct {
	// Interleavings tallies how often each distinct interleaving was
	// sampled (keyed by fingerprint).
	Interleavings map[uint64]int
	// Behaviors tallies the program-reported behaviour fingerprints.
	Behaviors map[string]int
	// Schedules is the number of schedules sampled.
	Schedules int
	// Failures counts buggy schedules by bug ID.
	Failures map[string]int
}

// InterleavingEntropy returns the Shannon entropy (bits) of the sampled
// interleaving distribution; higher is more even.
func (e *Exploration) InterleavingEntropy() float64 { return stats.EntropyOfMap(e.Interleavings) }

// BehaviorEntropy returns the Shannon entropy of the sampled behaviours.
func (e *Exploration) BehaviorEntropy() float64 { return stats.EntropyOfMap(e.Behaviors) }

// Explore samples opts.Schedules schedules of prog and tallies the
// distinct interleavings and behaviours witnessed — the §5 case-study
// methodology. Report behaviours from the program with Thread.SetBehavior.
// Explore is a thin wrapper over Session.
func Explore(prog func(*Thread), opts Options) (*Exploration, error) {
	s, err := NewSession(prog, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Explore()
}

// ExploreContext is Explore with an explicit cancellation context:
// cancelling ctx between schedules returns the partial tallies and the
// context's error.
func ExploreContext(ctx context.Context, prog func(*Thread), opts Options) (*Exploration, error) {
	opts.Context = ctx
	return Explore(prog, opts)
}

// Estimate computes the §3.4 lower bound on the probability that one
// schedule exposes a bug under the "clusters" pattern: c independent
// clusters whose intra-cluster interleaving count is the multinomial of
// the given per-thread interesting-event counts.
func Estimate(clusterCounts []int, clusters int) float64 {
	return stats.ClusterBound(stats.Multinomial(clusterCounts...), clusters)
}

// String renders a short human summary of a report.
func (r *Report) String() string {
	if !r.Found() {
		return fmt.Sprintf("no bug in %d schedules", r.Schedules)
	}
	if r.Delta == "" {
		return fmt.Sprintf("bug %q found at schedule %d (replay seed %d)", r.Failure.BugID, r.Schedule, r.Seed)
	}
	return fmt.Sprintf("bug %q found at schedule %d (Δ = %s, replay seed %d)",
		r.Failure.BugID, r.Schedule, r.Delta, r.Seed)
}
