package surw

// The library's face over the one session driver (internal/runner.Driver):
// a Session is session 0 of a runner batch seeded with Options.Seed, so
// Test, Explore and Replay run the schedules — census, Δ stream, seeds,
// warm pool, prefix checkpoint — that `surw run` and every table run for
// the same program, algorithm and seed.
//
// Test, Explore, and Replay are thin wrappers that keep their historical
// signatures; code that wants finer control — running schedules one at a
// time, inspecting the Δ of each, cancelling mid-hunt — drives a Session
// directly:
//
//	s, err := surw.NewSession(prog, surw.Options{Algorithm: "SURW"})
//	defer s.Close()
//	for s.Remaining() > 0 {
//	    res, err := s.Next()
//	    if err != nil { break } // context cancelled: partial results stand
//	    if res.Buggy() { ... }
//	}

import (
	"context"
	"fmt"

	"surw/internal/runner"
)

// Session is a reusable schedule driver for one program under one
// algorithm: it profiles once at construction (for the algorithms that
// read counts), then hands out schedules one at a time, re-drawing Δ per
// schedule for the selective algorithms. It holds a pool with parked
// goroutines: Close it when done. A Session is not safe for concurrent use;
// run independent Sessions (with independent seeds) to parallelize, as
// internal/runner does.
type Session struct {
	drv    *runner.Driver
	budget int // Options.Schedules
	ctx    context.Context
}

// NewSession validates the options, performs the one-time profiling run,
// and returns a driver positioned at schedule 0. The error is non-nil only
// for configuration problems (unknown algorithm).
func NewSession(prog func(*Thread), opts Options) (*Session, error) {
	o := opts.normalized()
	drv, err := runner.OpenDriver(runner.Target{
		Prog:        prog,
		MaxSteps:    o.MaxSteps,
		ProgSeed:    o.ProgSeed,
		Select:      o.Select,
		TraceFilter: o.TraceFilter,
	}, o.Algorithm, runner.Config{Seed: o.Seed}, 0)
	if err != nil {
		return nil, err
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{drv: drv, budget: o.Schedules, ctx: ctx}, nil
}

// Close releases the session's pool. Test, Explore and Replay (the
// package-level functions) close the session they open; a caller of
// NewSession closes its own.
func (s *Session) Close() { s.drv.Close() }

// Profile returns the census collected at construction, nil for an
// algorithm that reads no counts (RW, POS, RAPOS): none is taken, and none
// is charged to Report.Schedule.
func (s *Session) Profile() *Profile { return s.drv.Profile() }

// Index returns the number of schedules the session has run.
func (s *Session) Index() int { return s.drv.Index() }

// Remaining returns how many schedules of the Options.Schedules budget are
// left.
func (s *Session) Remaining() int { return s.budget - s.drv.Index() }

// ScheduleSeed returns the deterministic seed of schedule i — the same
// derivation Test has always used, exposed so external drivers (replay
// tooling, distributed workers) can address a schedule by index.
func (s *Session) ScheduleSeed(i int) int64 { return s.drv.ScheduleSeed(i) }

// LastSeed returns the seed of the most recently run schedule.
func (s *Session) LastSeed() int64 { return s.drv.Seed() }

// Delta describes the interesting-event subset active in the most recently
// run schedule: "" before the first Next, and for an algorithm that takes
// no Δ.
func (s *Session) Delta() string { return s.drv.Delta() }

// Next draws the next Δ from the stream and runs the session's next
// schedule. It returns the context's error (and no result) once the
// session's context is cancelled; everything already run stands.
func (s *Session) Next() (*Result, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	res := new(Result)
	s.drv.Next(res, nil, nil)
	return res, nil
}

// Test drains the session's remaining schedule budget hunting for a
// failing schedule — the engine behind the package-level Test. A cancelled
// context returns the partial report alongside the context's error.
func (s *Session) Test() (*Report, error) {
	rep := &Report{Schedule: -1}
	for s.Remaining() > 0 {
		res, err := s.Next()
		if err != nil {
			return rep, err
		}
		rep.Schedules++
		if res.Buggy() {
			rep.Failure = res.Failure
			rep.Schedule = s.Index() + s.drv.Charged() // 1-based, after the profiling run
			rep.Seed = s.LastSeed()
			rep.Delta = s.Delta()
			return rep, nil
		}
	}
	return rep, nil
}

// Explore drains the session's remaining schedule budget tallying distinct
// interleavings and behaviours — the engine behind the package-level
// Explore. A cancelled context returns the partial tallies alongside the
// context's error.
func (s *Session) Explore() (*Exploration, error) {
	ex := &Exploration{
		Interleavings: make(map[uint64]int),
		Behaviors:     make(map[string]int),
		Failures:      make(map[string]int),
	}
	for s.Remaining() > 0 {
		res, err := s.Next()
		if err != nil {
			return ex, err
		}
		ex.Schedules++
		ex.Interleavings[res.InterleavingHash]++
		if res.Behavior != "" {
			ex.Behaviors[res.Behavior]++
		}
		if res.Buggy() {
			ex.Failures[res.BugID()]++
		}
	}
	return ex, nil
}

// Replay runs again, with a full trace recorded, the schedule a Report
// names: schedule is Report.Schedule (1-based, counting the profiling run)
// and seed Report.Seed, which must be that schedule's. The Δ stream and the
// seeds are pure functions of Options.Seed, so a fresh Session over the same
// program and options re-derives exactly what the original hunt ran. It is
// the engine behind the package-level Replay and leaves Index unmoved.
func (s *Session) Replay(schedule int, seed int64) (*Result, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	i := schedule - 1 - s.drv.Charged()
	if i < 0 {
		return nil, fmt.Errorf("surw: replay of schedule %d: the session's first is %d", schedule, 1+s.drv.Charged())
	}
	if want := s.drv.ScheduleSeed(i); seed != want {
		return nil, fmt.Errorf("surw: replay of schedule %d with seed %d: its seed under these options is %d", schedule, seed, want)
	}
	return s.drv.Rerun(i, runner.Observers{RecordTrace: true}), nil
}
