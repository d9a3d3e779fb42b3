package runner

import (
	"math/rand"

	"surw/internal/atlas"
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
// The pool, the collector, the stream's storage and the algorithm
// instances outlive a session: a runner worker holds one Driver and begins
// session after session on it, and nothing a session leaves behind reaches
// the next one's results (worker, runner.go). One goroutine at a time.
type Driver struct {
	pool   *sched.Pool
	census profile.Collector
	rng    *rand.Rand // the Δ stream; allocated at the first session that draws
	// algs holds the algorithm instances by the name a session asked for,
	// re-armed by each schedule's Begin (core's package doc).
	algs map[string]sched.Algorithm

	tgt  Target
	alg  sched.Algorithm
	base int64 // the session's seed: every other seed is derived from it

	// prof is the session's census, nil for the algorithms that read no
	// counts; allInfo is its Δ = Γ instantiation, what every schedule is
	// handed unless the algorithm takes a Δ (delta) and the stream draws one.
	prof    *profile.Profile
	allInfo *sched.ProgramInfo
	delta   bool
	// drawn is the index of the schedule whose Δ the stream yields next,
	// -1 before the stream is seeded.
	drawn int

	cp   *sched.Checkpoint // the forced prefix, captured by schedule 0
	next int               // index of the schedule Next runs

	// What the schedule run last — by Next or Rerun — was given.
	seed int64
	info *sched.ProgramInfo
}

// Observers are what Rerun attaches to a schedule that Next ran bare.
type Observers struct {
	Tracer      sched.Tracer
	RecordTrace bool
}

// OpenDriver returns a driver on a pool of its own, positioned at schedule
// 0 of the given session of the batch cfg describes: the schedules
// RunSession runs for that index. Only cfg.Seed is read. The caller Closes
// it.
func OpenDriver(tgt Target, algName string, cfg Config, session int) (*Driver, error) {
	d := &Driver{pool: sched.NewPool()}
	if err := d.begin(tgt, algName, cfg, session); err != nil {
		return nil, err
	}
	return d, nil
}

// Close ends the pool's parked goroutines.
func (d *Driver) Close() { d.pool.Close() }

// begin positions the driver at schedule 0 of a session, taking the census
// if the algorithm reads counts. The census is seeded from the session, so
// the profile is this session's alone (DESIGN §4); it runs on the driver's
// pool like the testing schedules that follow. A crashing or truncated
// census still yields usable (if noisy) counts; §7 of the paper discusses
// exactly this degradation.
func (d *Driver) begin(tgt Target, algName string, cfg Config, session int) error {
	alg := d.algs[algName]
	if alg == nil {
		var err error
		if alg, err = core.New(algName); err != nil {
			return err
		}
		if d.algs == nil {
			d.algs = make(map[string]sched.Algorithm)
		}
		d.algs[algName] = alg
	}
	d.tgt, d.alg = tgt, alg
	d.base = cfg.Seed + int64(session)*1_000_003
	d.prof, d.allInfo, d.delta, d.drawn = nil, nil, false, -1
	d.cp, d.next, d.seed, d.info = nil, 0, 0, nil
	if in := core.InputsOf(alg); in.Counts {
		d.prof, _ = d.census.Collect(d.pool, tgt.Prog, profile.Options{Base: d.schedBase(d.base + 17)})
		d.allInfo = d.prof.Instantiate(d.prof.SelectAll())
		d.delta = in.Delta
	}
	return nil
}

func (d *Driver) schedBase(seed int64) sched.Base {
	return sched.Base{Seed: seed, ProgSeed: d.tgt.ProgSeed, MaxSteps: d.tgt.MaxSteps}
}

// ScheduleSeed returns the seed of the session's schedule i.
func (d *Driver) ScheduleSeed(i int) int64 { return d.base + int64(i)*2_000_033 + 1 }

// options returns what schedule i runs with: its seed and the info the Δ
// stream yields for it. The stream is a function of the session's seed, so
// a schedule out of order re-seeds it and discards the draws before i.
func (d *Driver) options(i int) sched.Options {
	info := d.allInfo
	if d.delta {
		if d.drawn != i {
			d.deltaStream(d.base)
			for d.drawn = 0; d.drawn < i; d.drawn++ {
				d.tgt.SelectDelta(d.prof, d.rng)
			}
		}
		d.drawn++
		if sel, ok := d.tgt.SelectDelta(d.prof, d.rng); ok {
			info = d.prof.Instantiate(sel)
		}
	}
	d.seed, d.info = d.ScheduleSeed(i), info
	return sched.Options{Base: d.schedBase(d.seed), Info: info, TraceFilter: d.tgt.TraceFilter}
}

// deltaStream seeds the Δ stream with seed: the draws of a fresh
// rand.New(rand.NewSource(seed)), without allocating its 4.9 KB source again.
func (d *Driver) deltaStream(seed int64) *rand.Rand {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(seed))
	} else {
		d.rng.Seed(seed)
	}
	return d.rng
}

// Next runs the session's next schedule into *res, storage the caller owns
// (sched.Pool.RunInto), with the tracer and atlas accumulator the caller
// watches its schedules with (nil for none). Schedule 0 captures the
// program's forced decision prefix; every later one replays it through the
// batched run-to-next-decision path instead of re-deciding it.
func (d *Driver) Next(res *sched.Result, tracer sched.Tracer, stage *atlas.Accum) {
	opts := d.options(d.next)
	opts.Tracer, opts.Atlas = tracer, stage
	if d.next == 0 {
		d.cp = d.pool.RunPrefixInto(res, d.tgt.Prog, d.alg, opts)
	} else {
		d.pool.RunFromInto(res, d.cp, d.tgt.Prog, d.alg, opts)
	}
	d.next++
}

// Rerun runs the session's schedule i again with o attached and returns a
// Result the caller owns. Schedules are deterministic given (program,
// algorithm, options), so it witnesses the interleaving the i-th Next did,
// or will. It leaves the session where it was: the next Next is unmoved.
func (d *Driver) Rerun(i int, o Observers) *sched.Result { return d.rerun(i, d.alg, o) }

// Record is Rerun with a replay recorder round the session's algorithm —
// it decides as the algorithm does — returning the choice sequence too.
func (d *Driver) Record(i int, o Observers) (*sched.Result, replay.Recording) {
	rec := replay.NewRecorder(d.alg)
	res := d.rerun(i, rec, o)
	return res, rec.Recording()
}

func (d *Driver) rerun(i int, alg sched.Algorithm, o Observers) *sched.Result {
	opts := d.options(i)
	opts.Tracer, opts.RecordTrace = o.Tracer, o.RecordTrace
	return d.pool.Run(d.tgt.Prog, alg, opts)
}

// Index returns the number of schedules Next has run.
func (d *Driver) Index() int { return d.next }

// Charged returns the schedules the paper's accounting adds to the
// session's count before its first testing schedule: 1 for the profiling
// run of an algorithm that reads counts, else 0. Schedule i is reported as
// schedule i + 1 + Charged().
func (d *Driver) Charged() int {
	if d.prof != nil {
		return 1
	}
	return 0
}

// Profile returns the session's census (nil when none was taken). It is the
// collector's storage: good until the driver begins another session.
func (d *Driver) Profile() *profile.Profile { return d.prof }

// Seed returns the seed of the schedule run last.
func (d *Driver) Seed() int64 { return d.seed }

// Delta describes the Δ the schedule run last was handed, "" for an
// algorithm that takes none.
func (d *Driver) Delta() string {
	if !d.delta || d.info == nil {
		return ""
	}
	return d.info.DeltaDesc
}
