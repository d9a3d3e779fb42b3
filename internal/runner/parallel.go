// Session execution. The session is the one unit of parallelism: RunCells
// drains a run's sessions — every cell's, in plan order — with one
// workpool, and this file is the engine each of its workers runs.
//
// The confinement model that keeps parallel output bit-identical to the
// sequential loop:
//
//   - Every session is self-contained. Its seed is derived from the config
//     seed and its own index (worker.begin, driver.go), never from a shared
//     stream, so no session observes another's randomness.
//   - What a session runs on it borrows from a worker — its sched.Pool,
//     census collector, Δ stream, its instance of the session's algorithm
//     and its Result storage (runner.go) — and has to itself while it
//     runs, in a state no earlier session, of this run or another, can be
//     told from: Pool.Run is bit-identical to sched.Run, a
//     reused collector's profile equals a fresh one's, an algorithm's Begin
//     resets every per-schedule field (core's package doc), every schedule
//     overwrites the whole Result, the stream is re-seeded before use.
//   - Target state is created inside Prog through the sched API on every
//     schedule, so concurrent schedules of one program never share memory;
//     the Target struct itself is only read.
//   - Results are collected by (cell, session) index, never by completion
//     order.
//
// Under these rules the session loop commutes with itself, so Workers: N
// is an execution-order change only. The regression tests in
// parallel_test.go hold RunTarget(Workers: 4) byte-identical to
// RunTarget(Workers: 1) for every registered algorithm.
package runner

import (
	"context"
	"fmt"
	"time"

	"surw/internal/obs"
	"surw/internal/sched"
)

// atlasPublishEvery is how many schedules a session runs between drains of
// its worker's atlas staging accumulator into the cell's: often enough that
// a live atlas view trails a long session by a fraction of a second, rarely
// enough that scanning the staging block is noise beside the schedules.
const atlasPublishEvery = 256

// runSession returns the session and whether it was executed here: false
// for one the store already held.
func runSession(ctx context.Context, tgt Target, algName string, cfg Config, session int, w *worker) (_ *Session, ran bool, _ error) {
	// The store is consulted strictly between sessions — a hit skips the
	// session wholesale, a miss runs it untouched — so attaching one can
	// never perturb a schedule (campaign_test.go holds the invariant).
	var key SessionKey
	if cfg.Store != nil {
		key = sessionKey(tgt, algName, cfg, session)
		if s, ok := cfg.Store.Lookup(key); ok {
			return s, false, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if err := w.begin(tgt, algName, cfg, session); err != nil {
		return nil, false, err
	}

	sess := &Session{FirstBug: -1, Bugs: make(map[string]int)}
	if cfg.Coverage {
		sess.Cov = &Coverage{
			Interleavings: make(map[uint64]int),
			Classes:       make(map[uint64]int),
			Behaviors:     make(map[string]int),
		}
	}
	every := effectiveEvery(cfg)

	// Observability hooks are strictly per-session, and the engine takes
	// one tracer (worker.observers). The atlas cell is shared by all
	// sessions of this (target, algorithm) pair, so the engine counts into
	// the worker's own staging accumulator — plain memory nobody else
	// touches — and the session drains that into the cell under the cell's
	// lock: every atlasPublishEvery schedules, and — deferred, so a
	// cancelled or failed session publishes the schedules it did run — on
	// the way out.
	tracer, stage := w.observers(cfg)
	atlasCell := cfg.Atlas.Cell(tgt.Name, algName)
	defer stage.DrainInto(atlasCell)

	for i := 0; i < cfg.Limit; i++ {
		if i > 0 && i%atlasPublishEvery == 0 {
			stage.DrainInto(atlasCell)
		}
		// Cancellation lands strictly between schedules: a schedule that
		// started always finishes (schedules are short), so the scheduler
		// itself never observes the context. The partial session is
		// discarded, not stored — resumable partial state is the store's
		// job, and its unit is the whole session.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		r := &w.res
		// Observe the prefix capture (schedule 0 doubles as the checkpoint
		// fork) when anyone is watching. Once per session, between
		// schedules — never on the schedule hot path.
		var prefixStart time.Time
		if i == 0 && (cfg.Metrics != nil || cfg.Phase != nil) {
			prefixStart = time.Now()
		}
		w.Next(r, tracer)
		if !prefixStart.IsZero() {
			took := time.Since(prefixStart)
			if cfg.Metrics != nil {
				cfg.Metrics.Latency("checkpoint_fork").Observe(took)
			}
			if cfg.Phase != nil {
				cfg.Phase(session, "prefix", prefixStart, took)
			}
		}
		sess.Schedules++
		if r.Truncated {
			sess.Truncated++
		}
		if sess.Cov != nil {
			sess.Cov.Interleavings[r.InterleavingHash]++
			if sess.Cov.Classes[r.ClassHash]++; sess.Cov.Classes[r.ClassHash] > 1 {
				sess.Cov.DupSchedules++
			}
			if r.Behavior != "" {
				sess.Cov.Behaviors[r.Behavior]++
			}
			if (i+1)%every == 0 || i+1 == cfg.Limit {
				sess.Cov.Series = append(sess.Cov.Series, CovPoint{
					Schedules:     i + 1,
					Interleavings: len(sess.Cov.Interleavings),
					Behaviors:     len(sess.Cov.Behaviors),
					Classes:       len(sess.Cov.Classes),
				})
			}
		}
		if r.Buggy() {
			sess.Bugs[r.BugID()]++
			if sess.FirstBug == -1 {
				sess.FirstBug = i + 1 + w.Charged()
				if cfg.FlightDir != "" {
					path, err := dumpFlight(w, cfg.FlightDir, session, i, r)
					if err != nil {
						return nil, false, err
					}
					sess.Flight = path
				}
				if cfg.StopAtFirstBug {
					break
				}
			}
		}
	}
	if cfg.Store != nil {
		flight := sess.Flight
		stored, err := cfg.Store.Store(key, sess) // sess is the store's now
		if err != nil || flight == "" {
			return stored, true, err
		}
		// The stored record names no flight, so that a resumed session claims
		// no artifact it did not write; this run wrote one, and reports it on
		// a copy of its own.
		out := *stored
		out.Flight = flight
		return &out, true, nil
	}
	return sess, true, nil
}

// dumpFlight runs the session's first failing schedule again, on the
// session's own worker, with a replay recorder and a ring collector
// attached — capturing the choice sequence and the last decisions — and
// writes the flight record under dir.
func dumpFlight(w *worker, dir string, session, schedule int, orig *sched.Result) (string, error) {
	col := obs.NewCollector(obs.FlightRingSize)
	res, rec := w.Record(schedule, col)

	fr := &obs.FlightRecord{
		Version:          obs.FlightVersion,
		Target:           w.tgt.Name,
		Algorithm:        w.alg.Name(),
		Session:          session,
		Schedule:         schedule,
		Seed:             w.seed,
		ProgSeed:         w.tgt.ProgSeed,
		MaxSteps:         w.tgt.MaxSteps,
		Recording:        rec.String(),
		BugID:            orig.BugID(),
		FailStep:         orig.Failure.Step,
		FailKind:         orig.Failure.Kind.String(),
		FailMsg:          orig.Failure.Msg,
		Steps:            orig.Steps,
		Threads:          orig.Threads,
		Fingerprint:      fmt.Sprintf("%016x", orig.InterleavingHash),
		ClassFingerprint: fmt.Sprintf("%016x", orig.ClassHash),
		Reproduced: res.BugID() == orig.BugID() &&
			res.InterleavingHash == orig.InterleavingHash &&
			res.ClassHash == orig.ClassHash,
		LastDecisions: obs.CollectorRecords(col),
	}
	if w.info != nil {
		fr.Delta = w.info.DeltaDesc
	}
	return obs.WriteFlight(dir, fr)
}
