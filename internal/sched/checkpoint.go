package sched

// Prefix checkpointing.
//
// Under a fixed program, every schedule of a session begins with the same
// forced prefix: decisions where exactly one thread is enabled consume no
// randomness, so they come out identical for every seed. A Checkpoint
// captures that prefix from one run — the forced decision sequence plus
// the accumulated interleaving and class hash state — and RunFrom replays
// it without consulting the algorithm and without re-hashing. Combined
// with the fast engine's inline continuation (a forced choice of the
// running thread parks nobody), a checkpointed prefix executes as a tight
// single-goroutine loop: the batched run-to-next-decision path.
//
// Replay goes through the engine's one step function (decide, execute):
// decide takes the forced TID from the checkpoint, and execute folds
// nothing until the last forced step adopts the captured state. Program
// effects, spawn notifications, algorithm Observe calls and Tracer.Decide
// calls all happen normally, so any Algorithm (including profile-driven
// ones) and any Tracer — an EventLog recording the schedule's events
// among them — sees exactly the event stream of a full run. Divergence
// (the enabled set not matching the capture run's singleton) is a caller
// bug — a different program or incompatible options — and panics.
//
// A program whose first decision is free has no prefix, and gets no
// checkpoint: the capture allocates only at its first forced decision, so
// RunPrefix costs such a program exactly what Run does.

// Checkpoint is the reusable forced prefix of a schedule. It is immutable
// once returned by RunPrefix and safe to share across RunFrom calls of
// the same pool (RunFrom only reads it). The zero value is not useful;
// a nil *Checkpoint means "no prefix" and RunFrom degrades to Run.
type Checkpoint struct {
	forced  []ThreadID // chosen TID of every forced (single-enabled) decision
	steps   int        // == len(forced)
	ilvHash uint64     // interleaving hash after the prefix

	// Class-fingerprint state after the prefix: the classAcc accumulator,
	// every thread's hash-clock and every object's (lastWriteH, readAcc)
	// pair, snapshotted at seal time. Replay adopts them wholesale when the
	// prefix ends instead of re-running classEvent per forced step.
	classAcc uint64
	clocks   []uint64
	objClass []objClass

	open bool // still capturing (run not yet past its first free choice)

	// RunFrom refuses options that would make the prefix diverge.
	stamp captureStamp
}

// captureStamp is what of a schedule's options its forced prefix depends
// on. TraceFilter cannot be compared (functions); callers must pass the
// same filter they captured with — the runner does.
type captureStamp struct {
	progSeed  int64
	maxSteps  int
	filterNil bool
}

func stampOf(opts Options) captureStamp {
	return captureStamp{opts.ProgSeed, opts.Base.Normalized().MaxSteps, opts.TraceFilter == nil}
}

// Decisions returns the number of forced decisions the checkpoint covers.
func (cp *Checkpoint) Decisions() int {
	if cp == nil {
		return 0
	}
	return cp.steps
}

// objClass is an object's class-fingerprint state as snapshotted into a
// Checkpoint (see objState.lastWriteH/readAcc).
type objClass struct {
	lastWriteH uint64
	readAcc    uint64
}

// captureForced appends a forced decision to the capture, which begins
// with the first one.
func (ex *Execution) captureForced(tid ThreadID) {
	if ex.capture == nil {
		ex.capture = &Checkpoint{open: true, stamp: stampOf(ex.opts)}
	}
	ex.capture.forced = append(ex.capture.forced, tid)
}

// closeCapture seals the capture at the current point: just before the
// first free (multi-choice) decision, or at schedule end when every
// decision was forced. A capture sealed before any forced decision stays
// nil: no prefix, no checkpoint.
func (ex *Execution) closeCapture() {
	ex.capturing = false
	cp := ex.capture
	if cp == nil {
		return
	}
	cp.open = false
	cp.steps = ex.steps
	cp.ilvHash = ex.ilvHash
	cp.classAcc = ex.classAcc
	cp.clocks = make([]uint64, len(ex.threads))
	for i, t := range ex.threads {
		cp.clocks[i] = t.clock
	}
	cp.objClass = make([]objClass, len(ex.objs))
	for i := range ex.objs {
		cp.objClass[i] = objClass{lastWriteH: ex.objs[i].lastWriteH, readAcc: ex.objs[i].readAcc}
	}
}

// replayed ends the last replayed forced step: the run adopts the captured
// interleaving hash and class state, and is past its prefix. The
// clock/object snapshots were taken after the last forced
// event's grant, so they may cover threads and objects this run has not
// created yet (spawned during that grant); those are re-derived
// identically by addThread/addObj as the grant replays, seeded from the
// clocks adopted here.
func (ex *Execution) replayed() {
	cp := ex.replayCp
	ex.replayCp = nil
	ex.ilvHash = cp.ilvHash
	ex.classAcc = cp.classAcc
	for i := 0; i < len(cp.clocks) && i < len(ex.threads); i++ {
		ex.threads[i].clock = cp.clocks[i]
	}
	for i := 0; i < len(cp.objClass) && i < len(ex.objs); i++ {
		ex.objs[i].lastWriteH = cp.objClass[i].lastWriteH
		ex.objs[i].readAcc = cp.objClass[i].readAcc
	}
}

// RunPrefix executes one schedule like Run and additionally captures its
// forced prefix. The returned Checkpoint is nil when there is none to
// capture — the first decision is free, or DisableBatching forced the slow
// loop — in which case RunFrom(nil, ...) is still correct and simply runs
// in full. A Tracer changes nothing here.
func (p *Pool) RunPrefix(prog func(*Thread), alg Algorithm, opts Options) (*Result, *Checkpoint) {
	res := new(Result)
	return res, p.RunPrefixInto(res, prog, alg, opts)
}

// RunPrefixInto is RunPrefix with the Result written over *res (see
// Pool.RunInto).
func (p *Pool) RunPrefixInto(res *Result, prog func(*Thread), alg Algorithm, opts Options) *Checkpoint {
	p.ex.persistent = true
	p.ex.runWith(prog, alg, opts, true, nil, res)
	cp := p.ex.capture
	p.ex.capture = nil
	return cp
}

// RunFrom executes one schedule like Run, replaying cp's forced prefix
// through the batched path. A nil cp runs in full; so does
// DisableBatching. The Result is bit-identical to Run with the same
// arguments, and so is what opts.Tracer is shown.
func (p *Pool) RunFrom(cp *Checkpoint, prog func(*Thread), alg Algorithm, opts Options) *Result {
	return p.RunFromInto(new(Result), cp, prog, alg, opts)
}

// RunFromInto is RunFrom with the Result written over *res (see
// Pool.RunInto).
func (p *Pool) RunFromInto(res *Result, cp *Checkpoint, prog func(*Thread), alg Algorithm, opts Options) *Result {
	if cp == nil || opts.DisableBatching {
		return p.RunInto(res, prog, alg, opts)
	}
	p.ex.persistent = true
	if cp.open {
		panic("sched: RunFrom with an unsealed checkpoint")
	}
	if cp.stamp != stampOf(opts) {
		panic("sched: RunFrom options incompatible with the checkpoint's capture run")
	}
	return p.ex.runWith(prog, alg, opts, false, cp, res)
}
