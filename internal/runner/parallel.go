// Session execution. Sessions are the unit of parallelism: RunTarget fans
// them over a workpool, and this file is the engine each worker runs.
//
// The confinement model that keeps parallel output bit-identical to the
// sequential loop:
//
//   - Every session is self-contained. Its seed is derived from the config
//     seed and its own index (cfg.Seed + session*1_000_003), never from a
//     shared stream, so no session observes another's randomness.
//   - A session builds its algorithm instance privately (core.New per
//     session). What it borrows — a worker's sched.Pool, census collector,
//     Result storage and Δ stream (runner.go) — it has to itself while it
//     runs and receives in a state no earlier session can be told from:
//     Pool.Run is bit-identical to sched.Run, a reused collector's profile
//     equals a fresh one's, every schedule overwrites the whole Result, the
//     stream is re-seeded before use.
//   - Target state is created inside Prog through the sched API on every
//     schedule, so concurrent schedules of one program never share memory;
//     the Target struct itself is only read.
//   - Results are collected by session index (workpool.Map), never by
//     completion order.
//
// Under these rules the session loop commutes with itself, so Workers: N
// is an execution-order change only. The regression tests in
// parallel_test.go hold RunTarget(Workers: 4) byte-identical to
// RunTarget(Workers: 1) for every registered algorithm.
package runner

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"surw/internal/atlas"
	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/replay"
	"surw/internal/sched"
)

// needsProfile reports whether the algorithm consumes count estimates, and
// therefore whether the paper charges it one extra schedule for the
// profiling run.
func needsProfile(alg string) bool {
	a := strings.ToUpper(alg)
	return a == "SURW" || a == "N-U" || a == "N-S" || a == "URW" ||
		strings.HasPrefix(a, "PCT") || strings.HasPrefix(a, "DB-")
}

// usesDelta reports whether the algorithm consumes a Δ selection.
func usesDelta(alg string) bool {
	a := strings.ToUpper(alg)
	return a == "SURW" || a == "N-U"
}

// atlasPublishEvery is how many schedules a session runs between drains of
// its worker's atlas staging accumulator into the cell's: often enough that
// a live atlas view trails a long session by a fraction of a second, rarely
// enough that scanning the staging block is noise beside the schedules.
const atlasPublishEvery = 256

func runSession(ctx context.Context, tgt Target, algName string, cfg Config, session int, w *worker) (*Session, error) {
	// The store is consulted strictly between sessions — a hit skips the
	// session wholesale, a miss runs it untouched — so attaching one can
	// never perturb a schedule (campaign_test.go holds the invariant).
	var key SessionKey
	if cfg.Store != nil {
		key = sessionKey(tgt, algName, cfg, session)
		if s, ok := cfg.Store.Lookup(key); ok {
			return s, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alg, err := core.New(algName)
	if err != nil {
		return nil, err
	}
	base := cfg.Seed + int64(session)*1_000_003
	pool := w.pool

	// The census is seeded from the session, so the profile is this
	// session's alone (DESIGN §4); it runs on the worker's pool like the
	// testing schedules that follow, into the worker's collector.
	plusOne := 0
	var prof *profile.Profile
	if needsProfile(algName) {
		plusOne = 1
		prof, _ = w.census.Collect(pool, tgt.Prog, profile.Options{Base: sched.Base{Seed: base + 17, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}, Runs: cfg.ProfileRuns})
		// A crashing or truncated census still yields usable (if noisy)
		// counts; §7 of the paper discusses exactly this degradation.
	}
	// allInfo is Δ = Γ: every schedule's info for the profiled algorithms
	// without a Δ, the fallback for the others. sessRng feeds only the
	// per-schedule Δ selection and is seeded on its first draw.
	var allInfo *sched.ProgramInfo
	if prof != nil {
		allInfo = prof.Instantiate(prof.SelectAll())
	}
	delta := prof != nil && usesDelta(algName)
	var sessRng *rand.Rand

	sess := &Session{FirstBug: -1, Bugs: make(map[string]int)}
	if cfg.Coverage {
		sess.Cov = &Coverage{
			Interleavings: make(map[uint64]int),
			Classes:       make(map[uint64]int),
			Behaviors:     make(map[string]int),
		}
	}
	every := effectiveEvery(cfg)

	// Observability hooks are strictly per-session: a shared aggregator
	// hands each session its own tracer (the scheduler contract), which
	// counts privately and publishes into the shared counters once per
	// schedule.
	var tracer sched.Tracer
	if cfg.Metrics != nil {
		tracer = cfg.Metrics.Tracer()
	}
	// The atlas cell is shared by all sessions of this (target, algorithm)
	// pair, so the engine counts into the worker's own staging accumulator
	// — plain memory nobody else touches — and the session drains that into
	// the cell under the cell's lock: every atlasPublishEvery schedules,
	// and — deferred, so a cancelled or failed session publishes the
	// schedules it did run — on the way out. The per-schedule class
	// fingerprint feeds the cell's uniformity tracker below, strictly after
	// each schedule completes.
	atlasCell := cfg.Atlas.Cell(tgt.Name, algName)
	var stage *atlas.Accum
	if cfg.Atlas != nil {
		stage = w.staging()
	}
	defer stage.DrainInto(atlasCell)

	// All schedules of the session share (and recycle) the worker's pool of
	// execution buffers and parked worker goroutines. The session's first
	// schedule additionally captures the program's forced decision prefix;
	// every later schedule replays it through the batched
	// run-to-next-decision path instead of re-deciding it, observers
	// attached or not.
	var cp *sched.Checkpoint
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
			return nil, err
		}
		info := allInfo
		if delta {
			if sessRng == nil {
				sessRng = w.deltaStream(base)
			}
			if sel, ok := selectDelta(tgt, prof, sessRng); ok {
				info = prof.Instantiate(sel)
			}
		}
		opts := sched.Options{Base: sched.Base{Seed: base + int64(i)*2_000_033 + 1, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}, Info: info, TraceFilter: tgt.TraceFilter, Tracer: tracer, Atlas: stage}
		r := &w.res
		abandon := false
		if i == 0 {
			// Observe the prefix capture (schedule 0's RunPrefix doubles as
			// the checkpoint fork) when anyone is watching. Once per
			// session, between schedules — never on the schedule hot path.
			var prefixStart time.Time
			if cfg.Metrics != nil || cfg.Phase != nil {
				prefixStart = time.Now()
			}
			cp = pool.RunPrefixInto(r, tgt.Prog, alg, opts)
			if !prefixStart.IsZero() {
				d := time.Since(prefixStart)
				if cfg.Metrics != nil {
					cfg.Metrics.Latency("checkpoint_fork").Observe(d)
				}
				if cfg.Phase != nil {
					cfg.Phase(session, "prefix", prefixStart, d)
				}
			}
			// Prefix-class early abandon (opt-in, see Config.PrefixFilter):
			// every schedule of the session replays this forced prefix, so
			// one saturated-class verdict retires the whole session. The
			// first schedule still counts — it ran — so the check only
			// short-circuits the loop after this iteration's accounting.
			if cfg.PrefixFilter != nil && cp != nil &&
				cfg.PrefixFilter.SaturatedPrefix(cp.ClassPrefix()) {
				abandon = true
			}
		} else {
			pool.RunFromInto(r, cp, tgt.Prog, alg, opts)
		}
		if cfg.Metrics != nil {
			cfg.Metrics.ObserveResult(alg.Name(), r)
		}
		sess.Schedules++
		if r.Truncated {
			sess.Truncated++
		}
		atlasCell.ObserveSchedule(r.ClassHash)
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
				sess.FirstBug = i + 1 + plusOne
				if cfg.FlightDir != "" {
					path, err := dumpFlight(tgt, algName, cfg, session, i, opts, r)
					if err != nil {
						return nil, err
					}
					sess.Flight = path
				}
				if cfg.StopAtFirstBug {
					break
				}
			}
		}
		if abandon {
			break
		}
	}
	if cfg.Store != nil {
		return cfg.Store.Store(key, sess)
	}
	return sess, nil
}

// dumpFlight re-executes the session's first failing schedule with a replay
// recorder and a ring collector attached — schedules are deterministic
// given (program, algorithm, Options), so the re-run witnesses the same
// interleaving while capturing the choice sequence and the last decisions —
// and writes the flight record under cfg.FlightDir.
func dumpFlight(tgt Target, algName string, cfg Config, session, schedule int,
	opts sched.Options, orig *sched.Result) (string, error) {
	alg, err := core.New(algName)
	if err != nil {
		return "", err
	}
	rec := replay.NewRecorder(alg)
	col := obs.NewCollector(obs.FlightRingSize)
	opts.Tracer = col
	res := sched.Run(tgt.Prog, rec, opts)

	fr := &obs.FlightRecord{
		Version:          obs.FlightVersion,
		Target:           tgt.Name,
		Algorithm:        alg.Name(),
		Session:          session,
		Schedule:         schedule,
		Seed:             opts.Seed,
		ProgSeed:         opts.ProgSeed,
		MaxSteps:         opts.MaxSteps,
		Recording:        rec.Recording().String(),
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
	if opts.Info != nil {
		fr.Delta = opts.Info.DeltaDesc
	}
	return obs.WriteFlight(cfg.FlightDir, fr)
}

func selectDelta(tgt Target, prof *profile.Profile, rng *rand.Rand) (profile.Selection, bool) {
	if tgt.Select != nil {
		return tgt.Select(prof, rng)
	}
	return prof.SelectSingleVar(rng)
}
