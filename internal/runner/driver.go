package runner

import (
	"math/rand"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/replay"
	"surw/internal/sched"
)

// Driver is one session as a source of schedules: the algorithm instance,
// the census its counts come from, the Δ stream and the seed map. A
// schedule is addressed by (session, index) and nothing else — Next runs
// them in order, Rerun runs any one of them again — so the batch runner,
// the library's Session, `surw run -trace`/`-print-failing` and the flight
// recorder all get a session's schedules from here.
//
// A Driver is a handle on a worker taken from the process's recycled ones
// (runner.go): the pool, the collector, the stream's storage and the
// algorithm instances outlive the session and the Driver, and nothing a
// session leaves behind reaches the next one's results. Close hands the
// worker back; a closed Driver holds none, and using it panics. One
// goroutine at a time.
type Driver struct{ *worker }

// OpenDriver returns a driver on a worker of its own, positioned at
// schedule 0 of the given session of the batch cfg describes: the schedules
// RunSession runs for that index. Only cfg.Seed is read. The caller Closes
// it.
func OpenDriver(tgt Target, algName string, cfg Config, session int) (*Driver, error) {
	w := getWorker()
	if err := w.begin(tgt, algName, cfg, session); err != nil {
		w.release()
		return nil, err
	}
	return &Driver{w}, nil
}

// Close hands the driver's worker back for another run to take, its pool's
// parked goroutines ended. What the driver returned that is the worker's
// storage — Profile's census — is valid until Close. Closing a closed
// Driver does nothing.
func (d *Driver) Close() {
	if d.worker != nil {
		d.worker.release()
		d.worker = nil
	}
}

// begin positions the driver at schedule 0 of a session, taking the census
// if the algorithm reads counts. The census is seeded from the session, so
// the profile is this session's alone (DESIGN §4); it runs on the driver's
// pool like the testing schedules that follow. A crashing or truncated
// census still yields usable (if noisy) counts; §7 of the paper discusses
// exactly this degradation.
func (w *worker) begin(tgt Target, algName string, cfg Config, session int) error {
	alg := w.algs[algName]
	if alg == nil {
		var err error
		if alg, err = core.New(algName); err != nil {
			return err
		}
		if w.algs == nil {
			w.algs = make(map[string]sched.Algorithm)
		}
		w.algs[algName] = alg
	}
	w.tgt, w.alg = tgt, alg
	w.base = cfg.Seed + int64(session)*1_000_003
	w.prof, w.allInfo, w.delta, w.drawn = nil, nil, false, -1
	w.cp, w.next, w.seed, w.info = nil, 0, 0, nil
	if in := core.InputsOf(alg); in.Counts {
		w.running = true
		w.prof, _ = w.census.Collect(&w.pool, tgt.Prog, profile.Options{Base: w.schedBase(w.base + 17)})
		w.running = false
		w.allInfo = w.prof.Instantiate(w.prof.SelectAll())
		w.delta = in.Delta
	}
	return nil
}

func (w *worker) schedBase(seed int64) sched.Base {
	return sched.Base{Seed: seed, ProgSeed: w.tgt.ProgSeed, MaxSteps: w.tgt.MaxSteps}
}

// ScheduleSeed returns the seed of the session's schedule i.
func (w *worker) ScheduleSeed(i int) int64 { return w.base + int64(i)*2_000_033 + 1 }

// options returns what schedule i runs with: its seed and the info the Δ
// stream yields for it. The stream is a function of the session's seed, so
// a schedule out of order re-seeds it and discards the draws before i.
func (w *worker) options(i int) sched.Options {
	info := w.allInfo
	if w.delta {
		if w.drawn != i {
			w.deltaStream(w.base)
			for w.drawn = 0; w.drawn < i; w.drawn++ {
				w.tgt.SelectDelta(w.prof, w.rng)
			}
		}
		w.drawn++
		if sel, ok := w.tgt.SelectDelta(w.prof, w.rng); ok {
			info = w.prof.Instantiate(sel)
		}
	}
	w.seed, w.info = w.ScheduleSeed(i), info
	return sched.Options{Base: w.schedBase(w.seed), Info: info, TraceFilter: w.tgt.TraceFilter}
}

// deltaStream seeds the Δ stream with seed: the draws of a fresh
// rand.New(rand.NewSource(seed)), without allocating its 4.9 KB source again.
func (w *worker) deltaStream(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
}

// Next runs the session's next schedule into *res, storage the caller owns
// (sched.Pool.RunInto), with the tracer the caller watches its schedules
// with (nil for none). Schedule 0 captures the program's forced decision
// prefix; every later one replays it through the batched
// run-to-next-decision path instead of re-deciding it.
func (w *worker) Next(res *sched.Result, tracer sched.Tracer) {
	opts := w.options(w.next)
	opts.Tracer = tracer
	w.running = true
	if w.next == 0 {
		w.cp = w.pool.RunPrefixInto(res, w.tgt.Prog, w.alg, opts)
	} else {
		w.pool.RunFromInto(res, w.cp, w.tgt.Prog, w.alg, opts)
	}
	w.running = false
	w.next++
}

// Rerun runs the session's schedule i again with tracer attached (nil for
// none; a sched.EventLog records its events) and returns a Result the
// caller owns. Schedules are deterministic given (program, algorithm,
// options), so it witnesses the interleaving the i-th Next did, or will. It
// leaves the session where it was: the next Next is unmoved.
func (w *worker) Rerun(i int, tracer sched.Tracer) *sched.Result { return w.rerun(i, w.alg, tracer) }

// Record is Rerun with a replay recorder round the session's algorithm —
// it decides as the algorithm does — returning the choice sequence too.
func (w *worker) Record(i int, tracer sched.Tracer) (*sched.Result, replay.Recording) {
	rec := replay.NewRecorder(w.alg)
	res := w.rerun(i, rec, tracer)
	return res, rec.Recording()
}

func (w *worker) rerun(i int, alg sched.Algorithm, tracer sched.Tracer) *sched.Result {
	opts := w.options(i)
	opts.Tracer = tracer
	w.running = true
	res := w.pool.Run(w.tgt.Prog, alg, opts)
	w.running = false
	return res
}

// Index returns the number of schedules Next has run.
func (w *worker) Index() int { return w.next }

// Charged returns the schedules the paper's accounting adds to the
// session's count before its first testing schedule: 1 for the profiling
// run of an algorithm that reads counts, else 0. Schedule i is reported as
// schedule i + 1 + Charged().
func (w *worker) Charged() int {
	if w.prof != nil {
		return 1
	}
	return 0
}

// Profile returns the session's census (nil when none was taken). It is the
// collector's storage: good until the worker begins another session, and a
// Driver's until its Close.
func (w *worker) Profile() *profile.Profile { return w.prof }

// Seed returns the seed of the schedule run last.
func (w *worker) Seed() int64 { return w.seed }

// Delta describes the Δ the schedule run last was handed, "" for an
// algorithm that takes none.
func (w *worker) Delta() string {
	if !w.delta || w.info == nil {
		return ""
	}
	return w.info.DeltaDesc
}
