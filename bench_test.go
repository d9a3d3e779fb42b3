// Benchmarks regenerating each table and figure of the paper at a reduced
// default scale, plus micro-benchmarks of the substrate and ablation
// benches for the design choices DESIGN.md calls out. Key result numbers
// are attached to each benchmark via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as a miniature reproduction run. `surw bench` produces the full
// tables; see EXPERIMENTS.md for paper-vs-measured.
package surw

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"surw/internal/atlas"
	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/ftp"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/racebench"
	"surw/internal/replay"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/internal/stats"
)

// benchScale is deliberately small: each table benchmark completes in
// seconds while preserving the result ordering.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Seed:           1,
		Sessions:       2,
		Limit:          400,
		SafeStackLimit: 400,
		RaceBenchLimit: 300,
		FTPTrials:      2,
		FTPLimit:       400,
		Fig2Trials:     5040,
	}
}

// BenchmarkFig2 regenerates Figure 2: uniformity of the final-x
// distribution on the Figure 1 program, per algorithm. The reported
// chi-square is each algorithm's median over its sessions, against the
// uniform distribution over 252 classes (lower is more uniform; URW's
// should be near its 251 degrees of freedom, the baselines' far above).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure2(benchScale(), nil)
		for _, alg := range experiments.Fig2Algorithms {
			chi := slices.Sorted(slices.Values(f.ChiSquare[alg]))
			b.ReportMetric((chi[(len(chi)-1)/2]+chi[len(chi)/2])/2, "chi2-"+strings.ReplaceAll(alg, "-", ""))
		}
	}
}

// BenchmarkTable1 regenerates Table 1's summary (bugs found on
// SCTBench+ConVul) at bench scale and reports the per-algorithm totals.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SCTBench(benchScale(), nil)
		for _, alg := range []string{"SURW", "POS", "RW"} {
			found := 0
			for _, tname := range r.Targets {
				if r.Results[tname][alg].FoundEver() {
					found++
				}
			}
			b.ReportMetric(float64(found), "bugs-"+alg)
		}
	}
}

// BenchmarkTable4 regenerates a slice of Table 4 (schedules-to-first-bug)
// on the reorder family, the paper's flagship analysis, reporting SURW's
// mean against PCT-3's.
func BenchmarkTable4(b *testing.B) {
	targets := []runner.Target{sctbench.Reorder(9, 1), sctbench.Twostage(10)}
	for i := 0; i < b.N; i++ {
		for _, tgt := range targets {
			for _, alg := range []string{"SURW", "PCT-3"} {
				res, err := runner.RunTarget(tgt, alg, runner.Config{
					Sessions: 2, Limit: 4000, Seed: 5, StopAtFirstBug: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum, found := res.FirstBugSummary()
				mean := float64(res.Limit)
				if found > 0 {
					mean = sum.Mean
				}
				b.ReportMetric(mean, tgt.Name[3:]+"-"+alg)
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (RaceBench distinct bugs) on a
// three-base slice and reports per-algorithm totals; SURW and POS should
// lead RW and PCT.
func BenchmarkTable2(b *testing.B) {
	suite := racebench.Suite()[:3]
	for i := 0; i < b.N; i++ {
		for _, alg := range []string{"SURW", "POS", "RW", "PCT-3"} {
			total := 0
			for _, base := range suite {
				res, err := runner.RunTarget(base.Target(), alg, runner.Config{
					Sessions: 1, Limit: benchScale().RaceBenchLimit, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += len(res.DistinctBugs())
			}
			b.ReportMetric(float64(total), "bugs-"+alg)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (LightFTP entropies) and reports the
// interleaving entropy per algorithm; SURW should be the highest.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LightFTP(benchScale(), nil)
		t3 := r.Table3()
		_ = t3
		for _, alg := range experiments.FTPAlgorithms {
			var ilv []float64
			for _, res := range r.Trials[alg] {
				ilv = append(ilv, res.Sessions[0].Cov.InterleavingEntropy())
			}
			b.ReportMetric(stats.Summarize(ilv).Mean, "ilvH-"+alg)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5's final coverage points (distinct
// interleavings and behaviours on LightFTP) for SURW vs RW.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LightFTP(benchScale(), nil)
		for _, alg := range []string{"SURW", "RW", "PCT-10"} {
			nIlv, nBeh := 0, 0
			for _, res := range r.Trials[alg] {
				cov := res.Sessions[0].Cov
				nIlv += len(cov.Interleavings)
				nBeh += len(cov.Behaviors)
			}
			n := float64(len(r.Trials[alg]))
			b.ReportMetric(float64(nIlv)/n, "ilv-"+alg)
			b.ReportMetric(float64(nBeh)/n, "beh-"+alg)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkDecision prices an algorithm's decisions alone, the quantity §6
// quotes (~20 ns for SURW, ~305 ns for RFF): a timing wrapper round its
// per-event calls — Next, NextIndex, Observe, ObserveSpawn — with the
// clock's own cost, measured beside every call, taken off. The schedules
// are pooled ones of the benchmark's sample workload's six targets, each
// readied as a runner session readies it (a census for an algorithm that
// reads counts, one Δ drawn for SURW). ns/decision is the algorithm's time
// over its decisions; x_RW is that over the random walk's, run in
// alternation on the same schedule seeds. The wide sub-benchmarks do the
// same on two 101-thread targets apart, so the six cells' figures stay
// comparable across changes, and report x_POS instead: there the random
// walk's clock-corrected time per decision is below the clock pair taken
// off it, and POS's is several times that pair. Not gated: it sizes
// ROADMAP items 9 and 21.
func BenchmarkDecision(b *testing.B) {
	algs := []string{"SURW", "URW", "POS", "PCT-3", "RW"}
	cells := decisionCells(b, "CS/reorder_10", "CS/twostage_20", "CB/stringbuffer-jdk1.4", "Chess/WSQ", "CS/bluetooth_driver", "Inspect/qsort_mt")
	for _, name := range algs {
		b.Run(name, func(b *testing.B) { benchDecisions(b, name, "x_RW", cells) })
	}
	b.Run("wide", func(b *testing.B) {
		cells := decisionCells(b, "CS/reorder_100", "CS/twostage_100")
		for _, name := range algs {
			b.Run(name, func(b *testing.B) { benchDecisions(b, name, "x_POS", cells) })
		}
	})
}

// benchDecisions is one BenchmarkDecision arm: algorithm name on cells,
// reported as ratio, "x_" and the reference algorithm's name, against it.
func benchDecisions(b *testing.B, name, ratio string, cells []decisionCell) {
	inner, err := core.New(name)
	if err != nil {
		b.Fatal(err)
	}
	refInner, err := core.New(strings.TrimPrefix(ratio, "x_"))
	if err != nil {
		b.Fatal(err)
	}
	in, refIn := core.InputsOf(inner), core.InputsOf(refInner)
	var at, rt decisionTimer
	alg, ref := timedAlgorithm(b, inner, &at), timedAlgorithm(b, refInner, &rt)
	pools := make([]*sched.Pool, len(cells))
	for i := range pools {
		pools[i] = sched.NewPool()
		defer pools[i].Close()
	}
	for i := 0; i < b.N; i++ {
		for j, c := range cells {
			seed := int64(i) + 1
			pools[j].Run(c.tgt.Prog, alg, c.options(seed, in))
			pools[j].Run(c.tgt.Prog, ref, c.options(seed, refIn))
		}
	}
	ns := at.perDecision()
	b.ReportMetric(ns, "ns/decision")
	// The reference's net time can come out 0 where the clock's noise
	// drowns it: then the ratio says nothing.
	if ref := rt.perDecision(); ref > 0 {
		b.ReportMetric(ns/ref, ratio)
	}
}

// decisionCell is one of the benchmark's sample targets with what a session
// of it hands an algorithm: the census's counts and, for SURW, one Δ.
type decisionCell struct {
	tgt        runner.Target
	all, delta *sched.ProgramInfo
}

func decisionCells(b *testing.B, names ...string) []decisionCell {
	var cells []decisionCell
	for _, name := range names {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			b.Fatalf("missing target %s", name)
		}
		// Like the runner, keep whatever counts a crashing or truncated
		// census still yields.
		prof, _ := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: 17, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}})
		c := decisionCell{tgt: tgt, all: prof.Instantiate(prof.SelectAll())}
		c.delta = c.all
		if sel, ok := tgt.SelectDelta(prof, rand.New(rand.NewSource(1))); ok {
			c.delta = prof.Instantiate(sel)
		}
		cells = append(cells, c)
	}
	return cells
}

func (c decisionCell) options(seed int64, in core.Inputs) sched.Options {
	o := sched.Options{Base: sched.Base{Seed: seed, ProgSeed: c.tgt.ProgSeed, MaxSteps: c.tgt.MaxSteps}, TraceFilter: c.tgt.TraceFilter}
	switch {
	case in.Delta:
		o.Info = c.delta
	case in.Counts:
		o.Info = c.all
	}
	return o
}

// decisionTimer accumulates the time an algorithm spends in its per-event
// calls, the clock's own share of that time, and the calls that decided.
type decisionTimer struct {
	ns, clock time.Duration
	decisions int
}

// add books the call timed from t0. Right after it, a time.Now/time.Since
// pair that brackets nothing prices the clock where the call ran: a clock
// read costs what the caches and the machine's neighbours allow at the
// time (36–52 ns a pair on a 2-vCPU VM, against 12 ns for a random walk's
// whole call), which a calibration loop run apart from the engine misses.
func (t *decisionTimer) add(t0 time.Time, decided bool) {
	t.ns += time.Since(t0)
	t1 := time.Now()
	t.clock += time.Since(t1)
	if decided {
		t.decisions++
	}
}

func (t *decisionTimer) perDecision() float64 {
	return max(float64(t.ns-t.clock), 0) / float64(max(t.decisions, 1))
}

// timed is the timing wrapper round an algorithm; Name and Begin pass
// through untimed. The engine takes its fast paths from the optional
// interfaces an algorithm has, so a wrapper has exactly the wrapped
// algorithm's (timedAlgorithm picks it).
type timed struct {
	sched.Algorithm
	t *decisionTimer
}

func (a *timed) Next(st *sched.State) sched.ThreadID {
	t0 := time.Now()
	tid := a.Algorithm.Next(st)
	a.t.add(t0, true)
	return tid
}

func (a *timed) Observe(ev sched.Event, st *sched.State) {
	t0 := time.Now()
	a.Algorithm.Observe(ev, st)
	a.t.add(t0, false)
}

// timedIndex is timed for an algorithm that is an IndexChooser and a
// SourceChooser (the random walk).
type timedIndex struct {
	timed
	idx sched.IndexChooser
	src sched.SourceChooser
}

func (a *timedIndex) NextIndex(n int) int {
	t0 := time.Now()
	i := a.idx.NextIndex(n)
	a.t.add(t0, true)
	return i
}

func (a *timedIndex) BeginSource(src rand.Source) { a.src.BeginSource(src) }

// timedSpawn is timed for a SpawnObserver (SURW, URW).
type timedSpawn struct {
	timed
	so sched.SpawnObserver
}

func (a *timedSpawn) ObserveSpawn(parent, child sched.ThreadID, st *sched.State) {
	t0 := time.Now()
	a.so.ObserveSpawn(parent, child, st)
	a.t.add(t0, false)
}

// timedAlgorithm returns alg in the wrapper with exactly its optional
// interfaces, failing b for a combination none has.
func timedAlgorithm(b *testing.B, alg sched.Algorithm, t *decisionTimer) sched.Algorithm {
	base := timed{alg, t}
	idx, isIdx := alg.(sched.IndexChooser)
	src, isSrc := alg.(sched.SourceChooser)
	so, isSpawn := alg.(sched.SpawnObserver)
	switch {
	case !isIdx && !isSrc && !isSpawn:
		return &base
	case isIdx && isSrc && !isSpawn:
		return &timedIndex{base, idx, src}
	case isSpawn && !isIdx && !isSrc:
		return &timedSpawn{base, so}
	}
	b.Fatalf("%s: no timing wrapper has its optional interfaces", alg.Name())
	return nil
}

// BenchmarkSchedulerThroughput measures raw substrate speed: events per
// second through the cooperative scheduler with the cheapest algorithm.
func BenchmarkSchedulerThroughput(b *testing.B) {
	prog := sctbench.Bitshift(64).Prog
	alg := core.NewRandomWalk()
	steps := 0
	for i := 0; i < b.N; i++ {
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		steps += r.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkParallelSessions measures the parallel runner's scaling: the
// same (target, algorithm, seed) workload fanned over 1, 2, 4 and
// GOMAXPROCS workers. Results are bit-identical at every worker count (see
// internal/runner/parallel_test.go), so this isolates pure wall-clock
// scaling; schedules/s should grow close to linearly until the worker
// count passes the CPU count. allocs/schedule reports the steady-state
// allocation cost per schedule under the pooled execution engine.
func BenchmarkParallelSessions(b *testing.B) {
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		// Underscore, not dash: `go test` appends -GOMAXPROCS to benchmark
		// names, and obs.ParseBench strips that suffix; a dashed worker
		// count would be indistinguishable from it.
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			schedules := 0
			for i := 0; i < b.N; i++ {
				res, err := runner.RunTarget(tgt, "RW", runner.Config{
					Sessions: 8, Limit: 100, Seed: 42, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range res.Sessions {
					schedules += s.Schedules
				}
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(schedules), "allocs/schedule")
		})
	}
}

// BenchmarkPooledSchedule quantifies the allocation diet directly: one
// schedule of the Figure 1 program through a recycled sched.Pool versus a
// fresh Execution per run, and through the pool into a Result the caller
// keeps (what the runner does), which is the Result fewer.
func BenchmarkPooledSchedule(b *testing.B) {
	prog := sctbench.Bitshift(16).Prog
	alg := core.NewRandomWalk()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		for i := 0; i < b.N; i++ {
			pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		}
	})
	b.Run("pooled_into", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		var res sched.Result
		for i := 0; i < b.N; i++ {
			pool.RunInto(&res, prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		}
	})
}

// BenchmarkLibrarySession holds the library on the warm path: surw.Explore
// is a face over the runner's session driver, so a schedule of the Figure 1
// program costs it the pooled schedule's allocations, the Result the caller
// keeps, and a session's set-up spread over its schedules (ci.sh gates
// allocs/schedule; ~70 while session.go ran every schedule through the
// one-shot sched.Run).
func BenchmarkLibrarySession(b *testing.B) {
	prog := sctbench.Bitshift(16).Prog
	const schedules = 500
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		ex, err := Explore(prog, Options{Base: Base{Seed: int64(i + 1)}, Schedules: schedules})
		if err != nil || ex.Schedules != schedules {
			b.Fatal(ex, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N*schedules), "allocs/schedule")
	b.ReportMetric(float64(b.N*schedules)/b.Elapsed().Seconds(), "schedules/s")
}

// forkAfterPrefix builds a program whose first `prefix` decisions are all
// forced (only the root is runnable) before two children introduce real
// scheduling choice: the shape that prefix checkpointing (Pool.RunPrefix /
// Pool.RunFrom) is designed to amortize.
func forkAfterPrefix(prefix int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		v := t.NewVar("v", 0)
		for i := 0; i < prefix; i++ {
			v.Add(t, 1)
		}
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				v.Add(w, 1)
			}
		})
		b := t.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				v.Add(w, 1)
			}
		})
		t.JoinAll(a, b)
	}
}

// BenchmarkPrefixFork measures prefix checkpointing on a program with a
// long forced prologue: "capture" is the RunPrefix schedule that records
// the forced-decision prefix, "replay" re-runs later seeds through
// RunFrom, and "full" is the same seed schedule without a checkpoint. The
// capture/replay split is the session shape of runner/parallel.go: one
// capture, Limit-1 replays.
func BenchmarkPrefixFork(b *testing.B) {
	prog := forkAfterPrefix(120)
	alg := core.NewRandomWalk()
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		decisions := 0
		for i := 0; i < b.N; i++ {
			_, cp := pool.RunPrefix(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 1}})
			if cp == nil {
				b.Fatal("no checkpoint captured")
			}
			decisions = cp.Decisions()
		}
		b.ReportMetric(float64(decisions), "forced-decisions")
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		_, cp := pool.RunPrefix(prog, alg, sched.Options{Base: sched.Base{Seed: 1}})
		if cp == nil {
			b.Fatal("no checkpoint captured")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.RunFrom(cp, prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 2}})
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		for i := 0; i < b.N; i++ {
			pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 2}})
		}
	})
}

// BenchmarkBatchedReplay is the A/B for the batched run-to-next-decision
// engine on the parallel benchmark's workload: the same pooled schedules
// with the fast engine ("batched"), with Options.DisableBatching forcing
// the verbatim slow loop ("slow"), and on the fast engine with an
// obs.MetricsTracer watching every decision ("traced"). All three produce
// bit-identical Results (see internal/crosscheck). The traced arm also
// reports x_batched, its cost as a multiple of the unobserved engine's
// measured in the same process in alternating chunks — the ratio ci.sh
// gates, since it survives a slow or noisy machine.
func BenchmarkBatchedReplay(b *testing.B) {
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	alg := core.NewRandomWalk()
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"batched", false}, {"slow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			pool := sched.NewPool()
			for i := 0; i < b.N; i++ {
				pool.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 1}, DisableBatching: mode.disable})
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e9, "ns/schedule")
		})
	}
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		pool, refPool := sched.NewPool(), sched.NewPool()
		tracer := obs.NewMetrics().Tracer()
		const chunk = 256
		var ref time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i += chunk {
			end := min(i+chunk, b.N)
			for j := i; j < end; j++ {
				pool.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(j) + 1}, Tracer: tracer})
			}
			b.StopTimer()
			t0 := time.Now()
			for j := i; j < end; j++ {
				refPool.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(j) + 1}})
			}
			ref += time.Since(t0)
			b.StartTimer()
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e9, "ns/schedule")
		b.ReportMetric(float64(b.Elapsed())/float64(ref), "x_batched")
	})
}

// BenchmarkObservedSessions prices watching a parallel batch: the
// BenchmarkParallelSessions cell at two workers with obs.Metrics and an
// atlas attached, against the same cell with neither, alternated in one
// process. x_unobserved is the ratio ci.sh gates: observers that write
// cache lines the two workers share per decision push it to about 3 (the
// parallel speed-up is gone and more); counting in the worker's own plain
// memory and publishing between schedules keeps it near 1.2.
func BenchmarkObservedSessions(b *testing.B) {
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	b.Run("workers_2", func(b *testing.B) {
		cfg := runner.Config{Sessions: 8, Limit: 100, Seed: 42, Workers: 2}
		observed := cfg
		observed.Metrics, observed.Atlas = obs.NewMetrics(), atlas.New()
		var ref time.Duration
		schedules := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runner.RunTarget(tgt, "RW", observed)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range res.Sessions {
				schedules += s.Schedules
			}
			b.StopTimer()
			t0 := time.Now()
			if _, err := runner.RunTarget(tgt, "RW", cfg); err != nil {
				b.Fatal(err)
			}
			ref += time.Since(t0)
			b.StartTimer()
		}
		b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
		b.ReportMetric(float64(b.Elapsed())/float64(ref), "x_unobserved")
	})
}

// BenchmarkCensus prices a session's profiling run where the paper books it
// (§4.1: one extra schedule): a warm worker's census — a reused
// profile.Collector on a warm pool, as runner.runSession takes it — against
// a pooled random-walk schedule of the same program and seed, which the
// census's own walk makes the same interleaving, alternated in one process.
// x_schedule is the ratio ci.sh gates (4.1-4.3 while the census hid the
// walk's IndexChooser and counted through two maps rebuilt per session);
// allocs/census is what the census allocates, the program's own objects
// included (82 and 110 then).
func BenchmarkCensus(b *testing.B) {
	for _, name := range []string{"CS/reorder_10", "CS/twostage_20"} {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			b.Fatal("missing target")
		}
		b.Run(name[3:], func(b *testing.B) {
			pool := sched.NewPool()
			defer pool.Close()
			var col profile.Collector
			rw := core.NewRandomWalk()
			base := func(i int) sched.Base {
				return sched.Base{Seed: int64(i) + 1, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}
			}
			census := func(i int) {
				if _, err := col.Collect(pool, tgt.Prog, profile.Options{Base: base(i)}); err != nil {
					b.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() { census(i); i++ })
			const chunk = 64
			var ref time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				end := min(i+chunk, b.N)
				for j := i; j < end; j++ {
					census(j)
				}
				b.StopTimer()
				t0 := time.Now()
				for j := i; j < end; j++ {
					pool.Run(tgt.Prog, rw, sched.Options{Base: base(j)})
				}
				ref += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(allocs, "allocs/census")
			b.ReportMetric(float64(b.Elapsed())/float64(ref), "x_schedule")
		})
	}
}

// BenchmarkProfileCollect measures the profiling phase on a mid-size
// benchmark target.
func BenchmarkProfileCollect(b *testing.B) {
	tgt, _ := sctbench.ByName("CS/twostage_20")
	for i := 0; i < b.N; i++ {
		if _, err := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: int64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for DESIGN.md's called-out choices
// ---------------------------------------------------------------------------

// staggered spawns worker A, runs m main-thread events, then spawns worker
// B — the §3.5 scenario: while B is unspawned, the only way to schedule
// B-side events early is to weight the main thread by B's remaining count.
func staggered(k, m int) (func(*sched.Thread), *sched.ProgramInfo) {
	prog := func(t *sched.Thread) {
		x := t.NewVar("x", 1)
		ctl := t.NewVar("ctl", 0)
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v << 1 })
			}
		})
		for i := 0; i < m; i++ {
			ctl.Add(t, 1)
		}
		bb := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v<<1 + 1 })
			}
		})
		t.Join(a)
		t.Join(bb)
		t.SetBehavior(fmt.Sprintf("%b", x.Peek()))
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	la := info.AddThread("0.0", "0")
	lb := info.AddThread("0.1", "0")
	info.Events[root] = m + 2
	info.Events[la] = k
	info.Events[lb] = k
	copy(info.InterestingEvents, info.Events)
	info.TotalEvents = m + 2 + 2*k
	return prog, info
}

// BenchmarkAblationSpawnWeights compares URW's skew with and without the
// §3.5 thread-creation weight correction on the staggered-spawn program:
// without the correction the main thread (and hence worker B's creation)
// is starved, so B-early interleavings are under-sampled and the final-x
// distribution skews far harder.
func BenchmarkAblationSpawnWeights(b *testing.B) {
	prog, info := staggered(4, 8)
	run := func(alg sched.Algorithm) float64 {
		counts := make(map[string]int)
		for s := 0; s < 7000; s++ {
			r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: info})
			counts[r.Behavior]++
		}
		xs := make([]int, 0, len(counts))
		for _, c := range counts {
			xs = append(xs, c)
		}
		return stats.ChiSquareUniform(xs, int(stats.Binomial(8, 4)))
	}
	for i := 0; i < b.N; i++ {
		on := core.NewURW()
		off := core.NewURW()
		off.NoSpawnCorrection = true
		b.ReportMetric(run(on), "chi2-corrected")
		b.ReportMetric(run(off), "chi2-uncorrected")
	}
}

// BenchmarkAblationPickFrom compares SURW's default pickFrom (fresh random
// priority per event) against uniform per-step choice on the reorder
// workload; both must keep the bug findable (Δ-uniformity does not depend
// on pickFrom), with similar schedule counts.
func BenchmarkAblationPickFrom(b *testing.B) {
	tgt := sctbench.Reorder(9, 1)
	for _, uniform := range []bool{false, true} {
		name := "priority"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := 0.0
				prof, _ := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: 17}})
				rng := rand.New(rand.NewSource(3))
				alg := core.NewSURW()
				alg.PickUniform = uniform
				for s := 0; s < 2000; s++ {
					sel, ok := prof.SelectSingleVar(rng)
					if !ok {
						b.Fatal("no shared var")
					}
					r := sched.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: prof.Instantiate(sel)})
					if r.Buggy() {
						found = float64(s + 1)
						break
					}
				}
				b.ReportMetric(found, "schedules-to-bug")
			}
		})
	}
}

// BenchmarkAblationCSEntrance compares SURW's Δ choices on a lock-heavy
// target: critical-section entrances (§3.5's recommendation) versus the
// protected variable itself.
func BenchmarkAblationCSEntrance(b *testing.B) {
	tgt, _ := sctbench.ByName("CS/wronglock_3")
	selects := map[string]func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool){
		"lock-entrances": func(p *profile.Profile, _ *rand.Rand) (profile.Selection, bool) {
			return p.SelectLockEntrances()
		},
		"shared-var": func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool) {
			return p.SelectSingleVar(rng)
		},
	}
	for _, name := range []string{"lock-entrances", "shared-var"} {
		sel := selects[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := tgt
				t.Select = sel
				res, err := runner.RunTarget(t, "SURW", runner.Config{
					Sessions: 3, Limit: 2000, Seed: 9, StopAtFirstBug: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum, found := res.FirstBugSummary()
				mean := float64(res.Limit)
				if found > 0 {
					mean = sum.Mean
				}
				b.ReportMetric(mean, "schedules-to-bug")
			}
		})
	}
}

// BenchmarkAblationCountNoise measures §7's sensitivity to count-estimate
// error: URW's uniformity as the estimates are scaled away from truth.
func BenchmarkAblationCountNoise(b *testing.B) {
	const k = 4
	for _, scale := range []float64{1.0, 2.0, 8.0} {
		b.Run(fmt.Sprintf("scale-%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info := sctbench.BitshiftInfo(k)
				// Skew only thread A's estimate: relative ratios are what
				// matter (§7).
				info.Events[info.LID("0.0")] = int(float64(k) * scale)
				info.InterestingEvents[info.LID("0.0")] = info.Events[info.LID("0.0")]
				prog := sctbench.Bitshift(k).Prog
				counts := make(map[string]int)
				alg := core.NewURW()
				for s := 0; s < 7000; s++ {
					r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: info})
					counts[r.Behavior]++
				}
				xs := make([]int, 0, len(counts))
				for _, c := range counts {
					xs = append(xs, c)
				}
				b.ReportMetric(stats.ChiSquareUniform(xs, int(stats.Binomial(2*k, k))), "chi2")
			}
		})
	}
}

// BenchmarkFTPSchedule measures one LightFTP schedule end to end.
func BenchmarkFTPSchedule(b *testing.B) {
	tgt := ftp.DefaultConfig().Target(3)
	alg := core.NewRandomWalk()
	for i := 0; i < b.N; i++ {
		sched.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(i), ProgSeed: 3}})
	}
}

// BenchmarkMinimize measures schedule minimization on a recorded failure.
func BenchmarkMinimize(b *testing.B) {
	tgt := sctbench.Reorder(2, 1)
	var rec replay.Recording
	var bugID string
	found := false
	for seed := int64(0); seed < 2000 && !found; seed++ {
		res, r := replay.Record(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
		if res.Buggy() {
			rec, bugID, found = r, res.Failure.BugID, true
		}
	}
	if !found {
		b.Fatal("no failure to minimize")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay.Minimize(tgt.Prog, rec, bugID, sched.Options{}, 0)
	}
}
