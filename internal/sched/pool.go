package sched

// Pool amortizes the substrate's per-schedule allocations across the many
// schedules of one session. A one-shot Run builds a fresh Execution every
// time: thread structs and their gate channels, the path and object-name
// maps, the object table and the enabled-set buffer. A Pool keeps one
// Execution and recycles all of that — under a fixed program the second and
// later schedules allocate almost nothing on the spawn/create path, because
// thread paths and object names are interned from the first schedule.
//
// Determinism: Pool.Run(prog, alg, opts) returns a Result bit-identical to
// sched.Run(prog, alg, opts). Resetting re-seeds the persistent random
// streams (yielding exactly the stream a fresh source would produce) and
// clears every piece of per-schedule state; the regression tests in
// pool_test.go hold the two paths equal event-for-event.
//
// A Pool is single-goroutine: it must not be shared between concurrently
// running sessions. The runner lends each session a Pool of its own for as
// long as the session runs (runner.WorkerCache).
type Pool struct {
	ex Execution
}

// NewPool returns an empty pool. The zero value is also ready to use.
func NewPool() *Pool { return &Pool{} }

// Run executes one schedule like the package-level Run, reusing the pool's
// buffers. The returned Result (including any recorded trace) is owned by
// the caller and is never overwritten by later runs.
func (p *Pool) Run(prog func(*Thread), alg Algorithm, opts Options) *Result {
	return p.RunInto(new(Result), prog, alg, opts)
}

// RunInto is Run writing the schedule's outcome over *res, storage the
// caller owns and may hand in again, and returning res: the same Result,
// field for field, and nothing of what *res held before — no Failure,
// Trace or ThreadPaths carries over. A caller that looks at one schedule's
// result before running the next (the runner, the census) saves the one
// object a warm schedule otherwise costs. RunPrefixInto and RunFromInto
// are the same form of RunPrefix and RunFrom.
func (p *Pool) RunInto(res *Result, prog func(*Thread), alg Algorithm, opts Options) *Result {
	p.ex.persistent = true
	return p.ex.runWith(prog, alg, opts, nil, nil, res)
}

// Reset drops the pooled schedule state while keeping allocated capacity,
// leaving the pool as if freshly constructed but warm. It is not required
// between runs — Run resets implicitly — but lets a long-lived pool be
// repointed at a different program without carrying stale interned names.
func (p *Pool) Reset() {
	p.closeWorkers()
	p.ex.names = nil
	p.ex.byPath = nil
	p.ex.spawnMemo = nil
	p.ex.objSeen = nil
	p.ex.objs = nil
	p.ex.trace = nil
	p.ex.state = nil
}

// Close releases the pool's parked worker goroutines. A pool whose last
// Run has returned may simply be dropped if leaking its workers until
// process exit is acceptable; long-lived processes cycling through many
// pools (the parallel runner) should Close each one. Run may be called
// again after Close — fresh workers are started on demand.
func (p *Pool) Close() { p.Reset() }

// closeWorkers unwinds the parked worker coroutines of a persistent
// execution (stop is a no-op on coroutines that already exited) and drops
// the structs.
func (p *Pool) closeWorkers() {
	for _, t := range p.ex.threads {
		t.coStop()
	}
	for _, t := range p.ex.freeThreads {
		t.coStop()
	}
	p.ex.threads = nil
	p.ex.freeThreads = nil
}
