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
// long as the session runs (runner.WorkerCache), and Closes it before
// recycling it for another run, whatever program that brings.
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
// field for field, and nothing of what *res held before — no Failure or
// Trace carries over. A caller that looks at one schedule's
// result before running the next (the runner, the census) saves the one
// object a warm schedule otherwise costs. RunPrefixInto and RunFromInto
// are the same form of RunPrefix and RunFrom.
func (p *Pool) RunInto(res *Result, prog func(*Thread), alg Algorithm, opts Options) *Result {
	p.ex.persistent = true
	return p.ex.runWith(prog, alg, opts, false, nil, res)
}

// Close ends the pool's coroutines and keeps its storage. Every parked
// coroutine is unwound (stop is a no-op on one that already exited), and
// one still parked inside a Goexit — an engine panic ended its schedule
// before retireGoexits — is retired, not stopped: stop would pass the
// Goexit on to the caller. The thread structs go back on the free list
// without a coroutine (addThread starts a fresh one); the interned names,
// the path index and the spawn memo are emptied, and the next schedule's
// reset truncates the other slices, as after any schedule; the program,
// the thread bodies and the last schedule's options are let go, so a
// closed pool holds on to no program. A pool whose last Run has returned
// may simply be dropped if leaking its coroutines until process exit is
// acceptable; a long-lived process recycling pools (runner's workers)
// Closes each one before reuse. Run after Close equals sched.Run, on any
// program: the first schedule after it starts its coroutines and interns
// its names again, as on a new pool.
func (p *Pool) Close() {
	ex := &p.ex
	// Stopped with the schedule's state intact: a coroutine parked
	// mid-schedule unwinds through the program's deferred operations.
	for _, ts := range [][]*Thread{ex.threads, ex.freeThreads} {
		for _, t := range ts {
			switch {
			case t.goexit:
				t.retire()
			case t.coStop != nil:
				t.coStop()
			}
		}
	}
	ex.freeThreads = append(ex.freeThreads, ex.threads...)
	ex.threads = ex.threads[:0]
	for _, t := range ex.freeThreads {
		t.coNext, t.coStop, t.coYield = nil, nil, nil
		t.body, t.boundFn = nil, nil
	}
	ex.goexits = 0
	clear(ex.names)
	ex.deadlockMsgs = 0
	for i, row := range ex.spawnMemo {
		clear(row)
		ex.spawnMemo[i] = row[:0]
	}
	ex.lastProg = nil
	ex.opts, ex.alg, ex.idx, ex.spawnObs = Options{}, nil, nil, nil
	ex.interesting, ex.filter, ex.tracer = nil, nil, nil
	ex.capture, ex.replayCp = nil, nil
}
