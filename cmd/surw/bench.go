package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/remote"
	"surw/internal/sctbench"
	"surw/internal/workpool"
)

// benchCmd regenerates the paper's tables and figures.
//
// Usage:
//
//	surw bench [flags] [experiments]
//
// Experiments (comma-separated or repeated; default "all"):
//
//	fig2    Figure 2  - uniformity histograms on the Figure 1 program
//	sct     Tables 1+4 - SCTBench+ConVul bug finding (all 7 algorithms)
//	rb      Table 2   - RaceBench distinct bugs
//	ftp     Table 3 + Figure 5 - LightFTP case-study coverage and entropy
//	all     everything above
//
// The default budgets reproduce the paper's result shapes in 35 s at two
// workers; -scale paper restores the paper's budgets (about half an hour).
// With -out DIR, each table is also written as .txt and .csv. -metrics FILE
// attaches the observability aggregator (internal/obs) to every experiment
// driver, prints its one-line summary under each table, and writes the
// Prometheus-style page to FILE; -pprof ADDR serves net/http/pprof while
// the experiments run. Neither changes any table or figure.
//
// Long campaigns persist with -campaign DIR: every completed session is
// appended to the crash-safe run-store (internal/campaign) and skipped on
// restart, and DIR/aggregates.json is (re)written when the run completes —
// byte-identical whether the campaign ran through or was killed and
// resumed, at any -workers setting. -serve ADDR exposes the live dashboard
// (/, /api/campaign, /metrics, /events, /buildinfo) while the campaign
// runs. -sct-targets and -sct-algs narrow the sct experiment to a subset of
// cells; -stop-after-cells N kills the process (exit 3) after N completed
// cells, simulating a crash for the resume test. Attaching the store
// or dashboard never changes any table, figure, or schedule.
//
// -workers N is how many sessions are in flight at once: an experiment is
// its session plan — every (cell, session) of its grid, in table order —
// drained by N workers on one cache of warm per-target state.
//
// Distributed campaigns: -coordinate ADDR serves the internal/remote lease
// queue for the same plan — the sessions of whichever experiments were
// asked for — and waits for `surw worker` fleets to execute them. When
// the plan is complete the normal path renders the tables from the store,
// so a distributed run's tables and aggregates.json are byte-identical to
// a local run's.
// -lease-ttl and -lease-batch tune the queue and -fleet-trace records it
// (all three are usage errors without -coordinate); with -serve, the
// dashboard additionally shows the worker fleet and /metrics gains
// surw_remote_*. Leases are granted in plan order, and a leased session
// runs as a local one does: the fleet has no knob that changes a record.
//
// -atlas attaches the exploration atlas (internal/atlas) to the sct
// experiment: schedule-space cartography (a depth profile of how the
// space branches), written to DIR/atlas.json at campaign end and rendered
// live on the -serve dashboard. Observation only — it never changes a schedule, a table, or
// an aggregate byte. In coordinate mode the written atlas is the fleet
// merge of every worker's (workers opt in with `surw worker -atlas`).
func benchCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("bench", stdout, stderr)
	c.shared("seed", "workers", "q", "metrics", "pprof", "campaign", "serve", "atlas", "version")
	var (
		scaleName  = c.fs.String("scale", "default", `budget preset: "default" or "paper"`)
		sessions   = c.fs.Int("sessions", 0, "override sessions for Tables 1/4")
		limit      = c.fs.Int("limit", 0, "override schedule limit for Tables 1/4")
		ssLimit    = c.fs.Int("safestack-limit", 0, "override the SafeStack budget")
		rbLimit    = c.fs.Int("rb-limit", 0, "override RaceBench iterations")
		ftpTrials  = c.fs.Int("ftp-trials", 0, "override LightFTP trials")
		ftpLimit   = c.fs.Int("ftp-limit", 0, "override LightFTP schedules per trial")
		outDir     = c.fs.String("out", "", "directory for .txt/.csv artifacts")
		full       = c.fs.Bool("full", false, "print full Figure 2 histograms")
		stopCells  = c.fs.Int("stop-after-cells", 0, "exit(3) after N completed cells (crash injection for resume tests)")
		sctTargets = c.fs.String("sct-targets", "", "comma-separated target names to restrict the sct experiment to")
		sctAlgs    = c.fs.String("sct-algs", "", "comma-separated algorithms to restrict the sct experiment to")
		sctCov     = c.fs.Bool("sct-coverage", false, "record per-session coverage (interleaving + commutation-class tallies) for sct cells; enables dedup-aware aggregates")
		coordAddr  = c.fs.String("coordinate", "", "serve the distributed-campaign coordinator on this address and wait for `surw worker` fleets (requires -campaign)")
		leaseTTL   = c.fs.Duration("lease-ttl", 30*time.Second, "coordinator: lease time-to-live between worker heartbeats")
		leaseBatch = c.fs.Int("lease-batch", 4, "coordinator: sessions per lease")
		fleetTrace = c.fs.String("fleet-trace", "", "coordinator: enable distributed tracing and write the assembled span log (JSONL) to this file")
	)
	return c.run(args, func() error {
		sc := experiments.DefaultScale()
		switch *scaleName {
		case "default":
		case "paper":
			sc = experiments.PaperScale()
		default:
			return usagef("unknown -scale %q (want default or paper)", *scaleName)
		}
		override := func(dst *int, v int) {
			if v > 0 {
				*dst = v
			}
		}
		override(&sc.Sessions, *sessions)
		override(&sc.Limit, *limit)
		override(&sc.SafeStackLimit, *ssLimit)
		override(&sc.RaceBenchLimit, *rbLimit)
		override(&sc.FTPTrials, *ftpTrials)
		override(&sc.FTPLimit, *ftpLimit)
		var coordOnly string // a coordinator flag given without -coordinate
		c.fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed": // given, whatever its value: 0 is a seed too
				sc.Seed = c.seed
			case "lease-ttl", "lease-batch", "fleet-trace":
				coordOnly = f.Name
			}
		})
		if coordOnly != "" && *coordAddr == "" {
			return usagef("-%s requires -coordinate (it configures the coordinator)", coordOnly)
		}
		sc.Workers = c.workers
		sc.Metrics = c.metrics
		sc.SCTTargets = splitList(*sctTargets)
		for _, name := range sc.SCTTargets {
			if _, ok := sctbench.ByName(name); !ok {
				return usagef("-sct-targets: %q is not an SCTBench target (try surw run -list)", name)
			}
		}
		sc.SCTAlgs = splitList(*sctAlgs)
		sc.SCTCoverage = *sctCov
		if c.atlas {
			sc.Atlas = atlas.New()
		}

		if err := c.openCampaign(); err != nil {
			return err
		}
		sc.Store = c.sessions
		if c.store != nil && *stopCells > 0 {
			c.store.CellHook = func(ev campaign.Event) {
				if ev.Cells >= *stopCells {
					c.logf("crash injection: exiting after %d cells", ev.Cells)
					os.Exit(3) // a crash, not a return: nothing is flushed, closed or written
				}
			}
		}

		// Experiment names and the paper's names for what they produce.
		alias := map[string][]string{
			"all": {"fig2", "sct", "rb", "ftp"}, "fig2": {"fig2"}, "sct": {"sct"}, "rb": {"rb"}, "ftp": {"ftp"},
			"table1": {"sct"}, "table4": {"sct"}, "table2": {"rb"}, "table3": {"ftp"}, "fig5": {"ftp"},
		}
		want := map[string]bool{}
		exps := c.fs.Args()
		if len(exps) == 0 {
			exps = []string{"all"}
		}
		for _, a := range exps {
			for _, e := range splitList(strings.ToLower(a)) {
				if alias[e] == nil {
					return usagef("unknown experiment %q", e)
				}
				for _, name := range alias[e] {
					want[name] = true
				}
			}
		}

		progress := experiments.Progress(nil)
		if !c.quiet {
			progress = func(format string, a ...any) {
				fmt.Fprintf(stderr, format+"\n", a...)
			}
		}

		// Distributed mode: serve the lease queue, let `surw worker` fleets
		// chew through the plan, then fall through to the normal experiment
		// path — every session of every grid hits the store, so the same
		// code renders the tables and writes aggregates.json, byte-identical
		// to a local run.
		var coord *remote.Coordinator
		if *coordAddr != "" {
			if c.store == nil {
				return usagef("-coordinate requires -campaign DIR")
			}
			var planned []string // in the order the experiments run below
			for _, name := range alias["all"] {
				if want[name] {
					planned = append(planned, name)
				}
			}
			coord = remote.NewCoordinator(c.store, experiments.Plan(sc, planned...), remote.CoordinatorOptions{
				LeaseTTL:  *leaseTTL,
				BatchSize: *leaseBatch,
				Tracing:   *fleetTrace != "",
			})
		}
		// The atlas source: the fleet merge in coordinate mode (workers ship
		// cumulative snapshots with their heartbeats and on leaving), the
		// local accumulator otherwise.
		atlasSnap := func() *atlas.Snapshot {
			if coord != nil {
				return coord.AtlasSnapshot()
			}
			if sc.Atlas != nil {
				return sc.Atlas.Snapshot()
			}
			return nil
		}
		if c.dash != nil {
			if coord != nil {
				c.dash.SetRemote(func() (*campaign.RemoteStatus, error) { return coord.Status(), nil })
			}
			if coord != nil || sc.Atlas != nil {
				c.dash.SetAtlas(func() (*atlas.Snapshot, error) { return atlasSnap(), nil })
			}
		}
		if err := c.serveDashboard(); err != nil {
			return err
		}
		if coord != nil {
			if err := c.coordinate(ctx, coord, *coordAddr, progress); err != nil {
				return err
			}
			if *fleetTrace != "" {
				spans := coord.Spans()
				if err := writeFile(*fleetTrace, func(w io.Writer) error { return obs.WriteSpansJSONL(w, spans) }); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "fleet trace (%d spans) written to %s\n", len(spans), *fleetTrace)
			}
		}

		// emit prints an artifact and archives it under -out. Its first
		// failure sticks, and stops the experiments that would follow.
		var emitErr error
		emit := func(name, text, csv string) {
			fmt.Fprintln(stdout, text)
			if *outDir == "" || emitErr != nil {
				return
			}
			if emitErr = os.MkdirAll(*outDir, 0o755); emitErr == nil {
				emitErr = os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(text), 0o644)
			}
			if emitErr == nil && csv != "" {
				emitErr = os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(csv), 0o644)
			}
		}
		// timed runs one experiment, then reports its throughput footer and
		// its wall clock. Both are timings, so they go to stderr: stdout (the
		// tables) stays byte-identical across -workers values and runs.
		timed := func(name string, f func() (footer string)) {
			if !want[name] || emitErr != nil {
				return
			}
			start := time.Now()
			if footer := f(); footer != "" {
				fmt.Fprintf(stderr, "%s %s\n", name, footer)
			}
			fmt.Fprintf(stderr, "%s finished in %s (%d workers)\n",
				name, time.Since(start).Round(time.Millisecond), workpool.Normalize(sc.Workers))
		}
		timed("fig2", func() string {
			f := experiments.Figure2(sc, progress)
			emit("figure2", f.Render(*full), "")
			return f.ThroughputFooter()
		})
		timed("sct", func() string {
			r := experiments.SCTBench(sc, progress)
			t1, t4 := r.Table1(), r.Table4()
			emit("table1", t1.String(), t1.CSV())
			emit("table4", t4.String(), t4.CSV())
			return r.ThroughputFooter()
		})
		timed("rb", func() string {
			r := experiments.RaceBench(sc, progress)
			t2 := r.Table2()
			emit("table2", t2.String(), t2.CSV())
			return r.ThroughputFooter()
		})
		timed("ftp", func() string {
			r := experiments.LightFTP(sc, progress)
			t3 := r.Table3()
			emit("table3", t3.String(), t3.CSV())
			emit("figure5", r.Figure5(), "")
			return ""
		})
		if emitErr != nil {
			return emitErr
		}
		if err := c.finish(atlasSnap()); err != nil {
			return err
		}
		if c.metricsFile != "" {
			fmt.Fprintf(stderr, "metrics written to %s\n", c.metricsFile)
		}
		if c.store != nil {
			// Dedup footer: per-cell distinct commutation classes and duplicate
			// rate from the stored records. Stderr like the other wall-adjacent
			// footers, so stdout stays byte-identical across runs.
			for _, cell := range c.store.Aggregate().Cells {
				if cell.Coverage == nil || cell.Coverage.Dedup == nil {
					continue
				}
				dd := cell.Coverage.Dedup
				fmt.Fprintf(stderr, "dedup %s/%s: %d classes over %d schedules, %.1f%% duplicate rate\n",
					cell.Target, cell.Algorithm, dd.DistinctClasses, dd.Samples, 100*dd.DuplicateRate)
			}
		}
		return nil
	})
}

// coordinate serves the lease queue on addr until the plan is complete and
// every live worker has heard so.
func (c *command) coordinate(ctx context.Context, coord *remote.Coordinator, addr string, progress experiments.Progress) error {
	if err := c.listen("coordinator", addr, coord); err != nil {
		return err
	}
	st := coord.Status()
	fmt.Fprintf(c.stderr, "coordinator: %d/%d sessions already stored; waiting for workers\n",
		st.SessionsDone, st.SessionsPlanned)
	for last := st.SessionsDone; !coord.Done(); time.Sleep(200 * time.Millisecond) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st = coord.Status(); st.SessionsDone != last {
			last = st.SessionsDone
			if progress != nil {
				progress("coordinator: %d/%d sessions, %d leases in flight, %d workers",
					st.SessionsDone, st.SessionsPlanned, st.InFlightLeases, len(st.Workers))
			}
		}
	}
	// Linger until every worker has heard "done" and taken its leave
	// (capped, for workers that died mid-campaign): the listener closes
	// when the command returns, and a worker still sleeping out its retry
	// hint by then wakes to a dead socket and, unable to tell a finished
	// campaign from a restarting coordinator, retries forever — and a
	// worker's leave-taking carries its final latency and atlas snapshots.
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline) && !coord.AllWorkersNotified(); {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintf(c.stderr, "distributed execution complete; rendering tables from the store\n")
	return nil
}

// splitList parses a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}
