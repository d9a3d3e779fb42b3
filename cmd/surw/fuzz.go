package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/replay"
	"surw/internal/sched"
)

var fuzzAlgorithms = []string{"SURW", "URW", "POS", "RAPOS", "PCT-3", "PCT-10", "DB-3", "RW", "N-U", "N-S"}

// fuzzCmd stress-tests the framework itself: it generates random
// well-formed, deadlock-free, assertion-free concurrent programs and runs
// every scheduling algorithm over them. Any failure, truncation, or replay
// divergence it prints is a bug in the scheduler or an algorithm — the
// generated programs cannot fail on their own.
//
// Usage:
//
//	surw fuzz [-programs N] [-schedules K] [-seed S] [-threads T] [-ops O]
//	          [-metrics FILE] [-pprof ADDR]
func fuzzCmd(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("fuzz", stdout, stderr)
	c.shared("seed", "metrics", "pprof", "version")
	var (
		programs  = c.fs.Int("programs", 200, "number of generated programs")
		schedules = c.fs.Int("schedules", 20, "schedules per program per algorithm")
		threads   = c.fs.Int("threads", 5, "max threads per program")
		ops       = c.fs.Int("ops", 10, "max straight-line ops per thread")
	)
	return c.run(args, func() error {
		cfg := progfuzz.Config{MaxThreads: *threads, MaxOps: *ops}
		defects := 0
		report := func(format string, a ...any) {
			defects++
			fmt.Fprintf(stderr, format+"\n", a...)
		}
		runs := 0
		for p := 0; p < *programs; p++ {
			genSeed := c.seed + int64(p)
			prog := progfuzz.Gen(genSeed, cfg).Prog()
			prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: genSeed ^ 0x5eed}})
			if err != nil {
				report("gen %d: profiling truncated: %v", genSeed, err)
				continue
			}
			selRng := rand.New(rand.NewSource(genSeed))
			for _, name := range fuzzAlgorithms {
				alg, err := core.New(name)
				if err != nil {
					return err
				}
				// Δ = Γ for the algorithms that read counts, a single
				// variable drawn per algorithm for those that take a Δ.
				var info *sched.ProgramInfo
				if in := core.InputsOf(alg); in.Counts {
					info = prof.Instantiate(prof.SelectAll())
					if in.Delta {
						if sel, ok := prof.SelectSingleVar(selRng); ok {
							info = prof.Instantiate(sel)
						}
					}
				}
				// Only the record leg is traced: the replay leg re-runs the same
				// schedule, and its decisions would count twice against the one
				// schedule ObserveResult reports.
				var tracer sched.Tracer
				if c.metrics != nil {
					tracer = recordLeg{c.metrics.Tracer(), name}
				}
				for s := 0; s < *schedules; s++ {
					runs++
					opts := sched.Options{Base: sched.Base{Seed: int64(s), MaxSteps: 200_000}, Info: info}
					recOpts := opts
					recOpts.Tracer = tracer
					res, rec := replay.Record(prog, alg, recOpts)
					if c.metrics != nil {
						c.metrics.ObserveResult(name, res)
					}
					switch {
					case res.Buggy():
						report("gen %d %s seed %d: spurious failure %v", genSeed, name, s, res.Failure)
					case res.Truncated:
						report("gen %d %s seed %d: truncated", genSeed, name, s)
					default:
						// Replay determinism: the recording must reproduce the
						// exact interleaving.
						if again := replay.Replay(prog, rec, opts); again.InterleavingHash != res.InterleavingHash {
							report("gen %d %s seed %d: replay diverged", genSeed, name, s)
						} else {
							runs++
						}
					}
				}
			}
		}
		fmt.Fprintf(stdout, "surw fuzz: %d programs x %d algorithms, %d runs, %d defects\n",
			*programs, len(fuzzAlgorithms), runs, defects)
		if err := c.finish(nil); err != nil {
			return err
		}
		if defects > 0 {
			return fmt.Errorf("%d defects", defects)
		}
		return nil
	})
}

// recordLeg files a traced replay.Record run under the algorithm's own
// name: Record runs it wrapped in a Recorder, which the engine would
// otherwise announce to the tracer as "record(NAME)".
type recordLeg struct {
	*obs.MetricsTracer
	name string
}

func (t recordLeg) BeginSchedule(string) { t.MetricsTracer.BeginSchedule(t.name) }
