package main

import (
	"context"
	"fmt"
	"io"

	"surw/internal/core"
	"surw/internal/crosscheck"
	"surw/internal/obs"
	"surw/internal/replay"
	"surw/internal/runner"
	"surw/internal/sched"
)

// runCmd runs one benchmark target under one scheduling algorithm and
// reports schedules-to-first-bug, with the observability layer wired
// through: decision-trace export, metrics, the flight recorder, and
// bit-exact flight replay.
//
// Usage:
//
//	surw run -target CS/reorder_10 -alg SURW [-limit N] [-sessions K] [-seed S]
//	         [-trace out.json] [-metrics out.prom] [-flight-dir DIR]
//	         [-print-failing] [-pprof ADDR]
//	surw run -replay-flight results/flight/flight_....json
//	surw run -crosscheck [-crosscheck-seeds N] [-seed S]
//	surw run -list
//
// -trace exports the decision trace of session 0's first failing schedule
// (or, bug-free, its first schedule) as Chrome trace_event JSON that
// Perfetto and chrome://tracing open directly; -print-failing replays,
// minimizes and prints that failing schedule. Both run the one schedule
// again by its index (runner.Driver.Rerun): what they show is the schedule
// the session reported, whether it just ran or came from a -campaign
// store. -flight-dir dumps a replayable flight record at each session's
// first failure; -replay-flight re-executes such a dump through
// internal/replay and verifies the same bug fires with the same
// interleaving fingerprint.
//
// -crosscheck soak-runs the framework's own differential and statistical
// oracle (internal/crosscheck): the mutation-sensitivity self-test plus a
// sweep of generated programs cross-checked against exhaustive
// enumeration. It exits non-zero on the first framework bug found.
//
// -campaign DIR and -serve ADDR persist the sessions to a resumable
// run-store and serve the live dashboard, as for `surw bench` (bench.go).
func runCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("run", stdout, stderr)
	c.shared("target", "seed", "workers", "metrics", "pprof", "campaign", "serve", "version")
	var (
		algName   = c.fs.String("alg", "SURW", "scheduling algorithm (SURW, URW, POS, RW, PCT-<d>, N-U, N-S)")
		limit     = c.fs.Int("limit", 10_000, "schedule budget per session")
		sessions  = c.fs.Int("sessions", 1, "independent sessions")
		traceOut  = c.fs.String("trace", "", "export a Chrome trace_event decision trace of session 0's first failing (else first) schedule to this file")
		printFail = c.fs.Bool("print-failing", false, "replay, minimize, and print the first failing schedule's events")
		flightDir = c.fs.String("flight-dir", "", "dump a replayable flight record at each session's first failing schedule under this directory")
		flightIn  = c.fs.String("replay-flight", "", "replay a flight record bit-exactly and verify bug ID + interleaving fingerprint")
		list      = c.fs.Bool("list", false, "list available targets")
		ccheck    = c.fs.Bool("crosscheck", false, "soak-run the framework self-verification oracle instead of a benchmark")
		ccSeeds   = c.fs.Int("crosscheck-seeds", 10, "generator seeds swept per grammar in -crosscheck mode")
	)
	return c.run(args, func() error {
		if *flightIn != "" {
			return replayFlight(stdout, *flightIn)
		}
		if *ccheck {
			if err := runCrosscheck(stdout, *ccSeeds, c.seed); err != nil {
				return fmt.Errorf("FRAMEWORK BUG: %w", err)
			}
			return nil
		}
		if *list {
			for _, name := range allTargetNames() {
				fmt.Fprintln(stdout, name)
			}
			return nil
		}
		tgt, err := c.resolveTarget()
		if err != nil {
			return err
		}
		if _, err := core.New(*algName); err != nil {
			return usageError{err}
		}

		if err := c.openCampaign(); err != nil {
			return err
		}
		if err := c.serveDashboard(); err != nil {
			return err
		}
		cfg := runner.Config{
			Sessions:       *sessions,
			Limit:          *limit,
			Seed:           c.seed,
			StopAtFirstBug: true,
			Workers:        c.workers,
			Metrics:        c.metrics,
			FlightDir:      *flightDir,
			Store:          c.sessions,
		}
		res, err := runner.RunTargetContext(ctx, tgt, *algName, cfg)
		if err != nil {
			return err
		}

		sum, found := res.FirstBugSummary()
		fmt.Fprintf(stdout, "target    %s\n", tgt.Name)
		fmt.Fprintf(stdout, "algorithm %s\n", *algName)
		fmt.Fprintf(stdout, "sessions  %d x %d schedules\n", *sessions, *limit)
		if found == 0 {
			fmt.Fprintln(stdout, "result    no bug found")
		} else {
			fmt.Fprintf(stdout, "result    bug found in %d/%d sessions\n", found, *sessions)
			fmt.Fprintf(stdout, "schedules to first bug: mean %.1f ± %.1f (min %.0f, max %.0f)\n",
				sum.Mean, sum.Std, sum.Min, sum.Max)
			for id := range res.DistinctBugs() {
				fmt.Fprintf(stdout, "bug id    %s\n", id)
			}
			if obsN := res.FirstBugObs(); len(obsN) > 1 {
				fmt.Fprintf(stdout, "censored observations available for log-rank comparisons (%d)\n", len(obsN))
			}
		}
		for _, s := range res.Sessions {
			if s.Flight != "" {
				fmt.Fprintf(stdout, "flight    %s\n", s.Flight)
			}
		}
		if err := c.finish(nil); err != nil {
			return err
		}
		if c.metricsFile != "" {
			fmt.Fprintf(stdout, "metrics   %s\n", c.metricsFile)
		}
		if c.store != nil {
			fmt.Fprintf(stdout, "campaign  %s (%d sessions stored)\n", c.store.Dir(), c.store.Len())
		}
		if *traceOut == "" && !*printFail {
			return nil
		}
		d, err := runner.OpenDriver(tgt, *algName, cfg, 0)
		if err != nil {
			return err
		}
		defer d.Close()
		firstBug := res.Sessions[0].FirstBug
		schedule := max(0, firstBug-1-d.Charged())
		if *traceOut != "" {
			col := obs.NewCollector(0) // keep every decision
			d.Rerun(schedule, runner.Observers{Tracer: col})
			if err := writeFile(*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, col) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace     %s\n", *traceOut)
		}
		if *printFail {
			if firstBug < 0 {
				fmt.Fprintln(stdout, "\nsession 0 found no failing schedule to print")
			} else {
				printFailingTrace(stdout, tgt, d, schedule)
			}
		}
		return nil
	})
}

// replayFlight re-executes a flight record through internal/replay and
// verifies the replay is bit-exact: same bug ID, same interleaving
// fingerprint under the target's trace filter.
func replayFlight(w io.Writer, path string) error {
	fr, err := obs.ReadFlight(path)
	if err != nil {
		return err
	}
	tgt, ok := lookupTarget(fr.Target)
	if !ok {
		return fmt.Errorf("flight names unknown target %q", fr.Target)
	}
	rec, err := replay.Parse(fr.Recording)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flight    %s\n", path)
	fmt.Fprintf(w, "target    %s  algorithm %s  session %d schedule %d\n",
		fr.Target, fr.Algorithm, fr.Session, fr.Schedule)
	fmt.Fprintf(w, "expect    bug %s (%s at step %d), fingerprint %s\n",
		fr.BugID, fr.FailKind, fr.FailStep, fr.Fingerprint)
	res, err := replay.ReplayStrict(tgt.Prog, rec, sched.Options{Base: sched.Base{ProgSeed: fr.ProgSeed, MaxSteps: fr.MaxSteps}, TraceFilter: tgt.TraceFilter})
	if err != nil {
		return fmt.Errorf("replay diverged: %w", err)
	}
	got := fmt.Sprintf("%016x", res.InterleavingHash)
	if res.BugID() != fr.BugID {
		return fmt.Errorf("replay reached bug %q, flight recorded %q", res.BugID(), fr.BugID)
	}
	if got != fr.Fingerprint {
		return fmt.Errorf("replay fingerprint %s != recorded %s", got, fr.Fingerprint)
	}
	// Older dumps predate the class fingerprint; verify it when recorded.
	if fr.ClassFingerprint != "" {
		if gotClass := fmt.Sprintf("%016x", res.ClassHash); gotClass != fr.ClassFingerprint {
			return fmt.Errorf("replay class fingerprint %s != recorded %s", gotClass, fr.ClassFingerprint)
		}
	}
	fmt.Fprintf(w, "replayed  bit-exact: bug %s reproduced with fingerprint %s in %d steps\n",
		res.BugID(), got, res.Steps)
	return nil
}

// runCrosscheck soak-runs the framework oracle: the statistical
// mutation-sensitivity self-test once, then the differential check over
// seeds generator seeds per grammar.
func runCrosscheck(w io.Writer, seeds int, seed int64) error {
	fmt.Fprintln(w, "crosscheck: mutation-sensitivity self-test (bitshift, 252 classes)")
	rep, err := crosscheck.MutationSensitivity(0, seed, 0.005)
	if rep != nil {
		fmt.Fprint(w, rep)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "crosscheck: differential sweep over %d seeds x 3 grammars, algorithms %v\n",
		seeds, crosscheck.Algorithms())
	checked := 0
	for s := int64(0); s < int64(seeds); s++ {
		// AllowPartial: over arbitrary seeds the occasional program outgrows
		// the enumeration budget; it still gets the replay and identity
		// checks, just not set membership.
		reps, err := crosscheck.CheckGenerated(seed+s, crosscheck.Options{Seed: seed + s, AllowPartial: true})
		for _, r := range reps {
			fmt.Fprintf(w, "  %-24s enumerated %6d schedules, %5d interleavings, %3d sampled schedules verified (deadlocky=%v)\n",
				r.Program, r.Enumerated, r.Interleavings, r.Checked, r.Deadlocky)
			checked += r.Checked
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "crosscheck: OK — %d sampled schedules legal, replayable, and pool/parallel-identical\n", checked)
	return nil
}

// printFailingTrace runs session 0's failing schedule again with a recorder
// attached, minimizes the recording, and prints the minimized interleaving.
func printFailingTrace(w io.Writer, tgt runner.Target, d *runner.Driver, schedule int) {
	r, rec := d.Record(schedule, runner.Observers{})
	fmt.Fprintf(w, "\nfailing schedule at seed offset %d: %v\n", schedule, r.Failure)
	fmt.Fprintf(w, "recording: %s\n", rec)
	opts := sched.Options{Base: sched.Base{ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}}
	min, attempts := replay.Minimize(tgt.Prog, rec, r.Failure.BugID, opts, 2000)
	fmt.Fprintf(w, "minimized (after %d replays): %s\n", attempts, min)
	opts.RecordTrace = true
	final := replay.Replay(tgt.Prog, min, opts)
	fmt.Fprintf(w, "minimized failing interleaving (%d events):\n", len(final.Trace))
	for _, ev := range final.Trace {
		fmt.Fprintf(w, "  %s\n", ev)
	}
	fmt.Fprintf(w, "failure: %v\n", final.Failure)
}
