package sched

// Prefix checkpointing.
//
// Under a fixed program, every schedule of a session begins with the same
// forced prefix: decisions where exactly one thread is enabled consume no
// randomness, so they come out identical for every seed. A Checkpoint
// captures that prefix from one run — the forced decision sequence plus
// the accumulated interleaving hash and trace — and RunFrom replays it
// without consulting the algorithm, without re-hashing and without
// re-recording the trace. Combined with the fast engine's inline
// continuation (a forced choice of the running thread parks nobody), a
// checkpointed prefix executes as a tight single-goroutine loop: the
// batched run-to-next-decision path.
//
// Replay still *executes* the prefix — program effects, spawn
// notifications, algorithm Observe calls, Tracer.Decide calls and the Δ
// hash all happen normally, so any Algorithm (including profile-driven
// ones) and any Tracer sees exactly the event stream of a full run — but
// the scheduler-side cost per forced step drops to a bounds check and a
// bitmask compare. Divergence (the enabled set not matching the capture
// run's singleton) is a caller bug — a different program or incompatible
// options — and panics.

// Checkpoint is the reusable forced prefix of a schedule. It is immutable
// once returned by RunPrefix and safe to share across RunFrom calls of
// the same pool (RunFrom only reads it). The zero value is not useful;
// a nil *Checkpoint means "no prefix" and RunFrom degrades to Run.
type Checkpoint struct {
	forced  []ThreadID // chosen TID of every forced (single-enabled) decision
	steps   int        // == len(forced)
	ilvHash uint64     // interleaving hash after the prefix
	trace   []Event    // prefix trace (only when captured with RecordTrace)

	// Class-fingerprint state after the prefix: the classAcc accumulator,
	// every thread's hash-clock and every object's (lastWriteH, readAcc)
	// pair, snapshotted at seal time. Replay adopts them wholesale when the
	// prefix ends instead of re-running classEvent per forced step.
	classAcc uint64
	clocks   []uint64
	objClass []objClass

	open    bool // still capturing (run not yet past its first free choice)
	invalid bool // capture aborted (DisableBatching or fast-engine bail)

	// Compatibility stamp: RunFrom refuses options that would make the
	// prefix diverge. TraceFilter cannot be compared (functions); callers
	// must pass the same filter they captured with — the runner does.
	progSeed    int64
	maxSteps    int
	recordTrace bool
	filterNil   bool
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

// closeCapture seals the capture at the current point: just before the
// first free (multi-choice) decision, or at schedule end when every
// decision was forced.
func (ex *Execution) closeCapture() {
	cp := ex.capture
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
	if ex.opts.RecordTrace {
		cp.trace = append([]Event(nil), ex.trace[:ex.steps]...)
	}
	ex.capture = nil
}

// RunPrefix executes one schedule like Run and additionally captures its
// forced prefix. The returned Checkpoint is nil when no prefix could be
// captured — DisableBatching forced the slow loop, or the program outgrew
// the fast engine — in which case RunFrom(nil, ...) is still correct and
// simply runs in full. A Tracer or an Atlas changes nothing here.
func (p *Pool) RunPrefix(prog func(*Thread), alg Algorithm, opts Options) (*Result, *Checkpoint) {
	res := new(Result)
	return res, p.RunPrefixInto(res, prog, alg, opts)
}

// RunPrefixInto is RunPrefix with the Result written over *res (see
// Pool.RunInto).
func (p *Pool) RunPrefixInto(res *Result, prog func(*Thread), alg Algorithm, opts Options) *Checkpoint {
	p.ex.persistent = true
	cp := &Checkpoint{
		open:        true,
		progSeed:    opts.ProgSeed,
		maxSteps:    effectiveMaxSteps(opts),
		recordTrace: opts.RecordTrace,
		filterNil:   opts.TraceFilter == nil,
	}
	p.ex.runWith(prog, alg, opts, cp, nil, res)
	if cp.invalid || cp.open {
		return nil
	}
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
	if cp.open || cp.invalid {
		panic("sched: RunFrom with an unsealed checkpoint")
	}
	if cp.progSeed != opts.ProgSeed || cp.maxSteps != effectiveMaxSteps(opts) ||
		cp.recordTrace != opts.RecordTrace || cp.filterNil != (opts.TraceFilter == nil) {
		panic("sched: RunFrom options incompatible with the checkpoint's capture run")
	}
	return p.ex.runWith(prog, alg, opts, nil, cp, res)
}

func effectiveMaxSteps(opts Options) int {
	if opts.MaxSteps <= 0 {
		return DefaultMaxSteps
	}
	return opts.MaxSteps
}
