// Command surwfuzz stress-tests the framework itself: it generates random
// well-formed, deadlock-free, assertion-free concurrent programs and runs
// every scheduling algorithm over them. Any failure, truncation, or replay
// divergence it prints is a bug in the scheduler or an algorithm — the
// generated programs cannot fail on their own.
//
// Usage:
//
//	surwfuzz [-programs N] [-schedules K] [-seed S] [-threads T] [-ops O]
//	         [-metrics FILE] [-pprof ADDR]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"

	"surw/internal/buildinfo"
	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/replay"
	"surw/internal/sched"
)

var algorithms = []string{"SURW", "URW", "POS", "RAPOS", "PCT-3", "PCT-10", "DB-3", "RW", "N-U", "N-S"}

func main() {
	var (
		programs   = flag.Int("programs", 200, "number of generated programs")
		schedules  = flag.Int("schedules", 20, "schedules per program per algorithm")
		seed       = flag.Int64("seed", 1, "generation seed base")
		threads    = flag.Int("threads", 5, "max threads per program")
		ops        = flag.Int("ops", 10, "max straight-line ops per thread")
		metricsOut = flag.String("metrics", "", "write a Prometheus-style metrics page to this file after the sweep")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("surwfuzz %s\n", buildinfo.Get())
		return
	}
	if *pprofAddr != "" {
		go func() { _ = http.ListenAndServe(*pprofAddr, nil) }()
	}
	var metrics *obs.Metrics
	if *metricsOut != "" {
		metrics = obs.NewMetrics()
	}

	cfg := progfuzz.Config{MaxThreads: *threads, MaxOps: *ops}
	defects := 0
	runs := 0
	for p := 0; p < *programs; p++ {
		genSeed := *seed + int64(p)
		prog := progfuzz.Gen(genSeed, cfg).Prog()
		prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: genSeed ^ 0x5eed}})
		if err != nil {
			report(&defects, "gen %d: profiling truncated: %v", genSeed, err)
			continue
		}
		selRng := rand.New(rand.NewSource(genSeed))
		for _, name := range algorithms {
			alg, err := core.New(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			info := infoFor(name, prof, selRng)
			// Only the record leg is traced: the replay leg re-runs the same
			// schedule, and its decisions would count twice against the one
			// schedule ObserveResult reports.
			var tracer sched.Tracer
			if metrics != nil {
				tracer = recordLeg{metrics.Tracer(), name}
			}
			for s := 0; s < *schedules; s++ {
				runs++
				opts := sched.Options{Base: sched.Base{Seed: int64(s), MaxSteps: 200_000}, Info: info}
				recOpts := opts
				recOpts.Tracer = tracer
				res, rec := replay.Record(prog, alg, recOpts)
				if metrics != nil {
					metrics.ObserveResult(name, res)
				}
				switch {
				case res.Buggy():
					report(&defects, "gen %d %s seed %d: spurious failure %v", genSeed, name, s, res.Failure)
				case res.Truncated:
					report(&defects, "gen %d %s seed %d: truncated", genSeed, name, s)
				default:
					// Replay determinism: the recording must reproduce the
					// exact interleaving.
					if again := replay.Replay(prog, rec, opts); again.InterleavingHash != res.InterleavingHash {
						report(&defects, "gen %d %s seed %d: replay diverged", genSeed, name, s)
					} else {
						runs++
					}
				}
			}
		}
	}
	fmt.Printf("surwfuzz: %d programs x %d algorithms, %d runs, %d defects\n",
		*programs, len(algorithms), runs, defects)
	if metrics != nil {
		fmt.Println(metrics.Summary())
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = metrics.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "surwfuzz: metrics: %v\n", err)
			os.Exit(2)
		}
	}
	if defects > 0 {
		os.Exit(1)
	}
}

// recordLeg files a traced replay.Record run under the algorithm's own
// name: Record runs it wrapped in a Recorder, which the engine would
// otherwise announce to the tracer as "record(NAME)".
type recordLeg struct {
	*obs.MetricsTracer
	name string
}

func (t recordLeg) BeginSchedule(string) { t.MetricsTracer.BeginSchedule(t.name) }

func infoFor(name string, prof *profile.Profile, rng *rand.Rand) *sched.ProgramInfo {
	switch name {
	case "SURW", "N-U":
		if sel, ok := prof.SelectSingleVar(rng); ok {
			return prof.Instantiate(sel)
		}
		return prof.Instantiate(prof.SelectAll())
	case "URW", "N-S", "PCT-3", "PCT-10", "DB-3":
		return prof.Instantiate(prof.SelectAll())
	}
	return nil
}

func report(defects *int, format string, args ...any) {
	*defects++
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
