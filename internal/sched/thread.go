package sched

import (
	"fmt"
	"iter"
	"math/rand"
	"sync/atomic"
)

type killedSignal struct{}

// stopSignal unwinds a coroutine parked mid-schedule when its pool is
// closed (Pull's stop makes the pending yield return false). It is
// re-raised past runBody's recover and absorbed at the top of workerSeq.
type stopSignal struct{}

type assertFailure struct {
	bugID string
	msg   string
}

// Thread is a virtual thread of the program under test. Every method that
// touches shared state is an atomic event: the thread parks, the scheduler
// picks who runs, and only then does the operation take effect. A Thread is
// only valid inside the program function it was passed to.
type Thread struct {
	ex       *Execution
	id       ThreadID
	parent   ThreadID
	path     string
	pathHash uint64
	body     func(*Thread)
	boundFn  func()         // GoBound's body (binding.go)
	bindKey  atomic.Uintptr // gkey of the goroutine bound to this thread, 0 for none (binding.go)

	// The thread's goroutine is a coroutine (iter.Pull): parking and
	// granting are direct coroutine switches, an order of magnitude
	// cheaper than a channel handoff through the runtime scheduler.
	// coNext resumes the parked coroutine (only ever called with the
	// baton in hand), coStop unwinds it when the pool closes, coYield
	// parks it (only ever called from inside the coroutine), and killed
	// makes the next park resume as a kill.
	coNext  func() (struct{}, bool)
	coStop  func()
	coYield func(struct{}) bool
	killed  bool

	// memoP/memoI locate this thread's spawn-memo entry (parent TID and
	// spawn index; memoP is -1 for the root). deferredPrime marks a thread
	// whose first event was published from that entry without waking the
	// goroutine (see primeChain); primePoison marks a prologue that did
	// something deferred priming could not reproduce (see recordPrime).
	// goexit marks a thread whose body called runtime.Goexit: its
	// coroutine is parked inside that Goexit (runBody) until retire.
	// They sit between killed and state so that the small fields share
	// one word and a Thread stays within the 256-byte size class.
	memoP, memoI  int32
	deferredPrime bool
	primePoison   bool
	goexit        bool

	state      threadState
	next       Event
	seq        int
	clock      uint64 // class-fingerprint hash-clock (see Execution.classEvent)
	spawned    int
	joinTarget ThreadID
	gated      ObjID // object whose gate holds this thread (fast engine)
	heldMutex  []ObjID
	failed     assertFailure // what Assert/Assertf/Fail panic with a pointer to
}

// ID returns this thread's runtime ID (creation order, root = 0).
func (t *Thread) ID() ThreadID { return t.id }

// Path returns this thread's stable logical path: the root is "0" and the
// k-th thread spawned by a thread with path p is "p.k". Paths identify the
// same logical thread across schedules of a fixed program.
func (t *Thread) Path() string { return t.path }

// ProgRand returns the program-input random stream (seeded by
// Options.ProgSeed, independent of the scheduling stream). Use it for
// randomized but schedule-independent inputs. The stream is seeded on
// first use each schedule; it is identical however often it is fetched.
func (t *Thread) ProgRand() *rand.Rand {
	ex := t.ex
	if p := ex.primingT; p != nil {
		// A prologue drawing program randomness pins its thread to real
		// priming: deferring it would reorder the draws of the shared
		// stream across threads.
		p.primePoison = true
	}
	if !ex.progSeeded {
		ex.progSeeded = true
		if ex.progRand == nil {
			ex.progSrc = newFastSource(ex.opts.ProgSeed + 1)
			ex.progRand = rand.New(ex.progSrc)
		} else {
			ex.progSrc.Seed(ex.opts.ProgSeed + 1)
		}
	}
	return ex.progRand
}

// SetBehavior records the program's behaviour fingerprint for this schedule
// (e.g. a hash of the final data-structure state). The last call wins.
func (t *Thread) SetBehavior(b string) {
	if p := t.ex.primingT; p != nil {
		// Last-call-wins ordering is priming-order sensitive.
		p.primePoison = true
	}
	t.ex.behavior = b
}

// workerSeq is the coroutine body of every virtual thread. A fresh struct
// starts one coroutine; in a persistent (pooled) execution it parks at the
// top yield between schedules and is recycled with the struct, so pooled
// schedules never pay coroutine creation. A panic escaping runBody comes
// from the scheduler or algorithm machinery itself (program panics are
// absorbed inside runBody): it propagates out of the resume call onto the
// pump caller's stack, exactly like a slow-loop panic.
func (t *Thread) workerSeq(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); ok {
				return // pool closed while parked mid-schedule
			}
			panic(r)
		}
	}()
	t.coYield = yield
	for {
		if !yield(struct{}{}) {
			return // pool closed while parked between schedules
		}
		if t.killed {
			// Killed before ever running this schedule (still unprimed).
			t.killed = false
			t.state = tsFinished
			continue
		}
		t.runBody()
		if !t.ex.persistent {
			return
		}
	}
}

// runBody runs the thread's body for one schedule and hands the baton on
// when it finishes, absorbing the program-level panics (kills, assertion
// failures, program bugs) that end a body. A body that calls
// runtime.Goexit finishes as a return would, but the Goexit cannot be
// stopped and iter.Pull re-raises it in whichever goroutine resumes the
// coroutine next — the scheduler's. So the coroutine parks inside the
// Goexit, pump never resumes it again, and the schedule's end hands it to
// retire, whose throwaway goroutine the Goexit ends instead.
func (t *Thread) runBody() {
	returned := false
	defer func() {
		r := recover()
		if r != nil {
			if t.ex.inEngine {
				// Not a program failure: the panic came from the decision
				// machinery running on this goroutine. Let workerLoop
				// forward it to the orchestrator.
				panic(r)
			}
			switch v := r.(type) {
			case killedSignal:
				// aborted schedule; exit quietly
			case stopSignal:
				panic(r) // pool closing; unwind past the defer below
			case *assertFailure:
				t.ex.fail(Failure{Kind: FailAssert, BugID: v.bugID, Msg: v.msg, TID: t.id, Step: t.ex.steps})
			default:
				t.ex.fail(Failure{Kind: FailPanic, BugID: fmt.Sprintf("panic:%v", v), Msg: fmt.Sprint(v), TID: t.id, Step: t.ex.steps})
			}
		}
		t.state = tsFinished
		ex := t.ex
		if ex.fast && !ex.killing {
			// Decide the next step in place; the chosen successor (if any)
			// lands in ex.resume and the top-of-workerSeq park hands it to
			// the trampoline.
			ex.finishPoint(t)
		}
		// Slow path / killing: parking at the top of workerSeq with no
		// successor returns the baton to the scheduler loop.
		if r == nil && !returned {
			// runtime.Goexit: park inside it instead (see above).
			t.goexit = true
			ex.goexits++
			t.coYield(struct{}{})
		}
	}()
	t.body(t)
	returned = true
}

// start gives t a fresh coroutine, run to its first park.
func (t *Thread) start() {
	t.coNext, t.coStop = iter.Pull(iter.Seq[struct{}](t.workerSeq))
	t.coNext()
}

// retire completes the Goexit t's body started (runBody): a throwaway
// goroutine resumes the coroutine parked inside it, so the Goexit that
// iter.Pull passes on to the resumer ends that goroutine. t gets a fresh
// coroutine when it is next reused.
func (t *Thread) retire() {
	next := t.coNext
	t.coNext, t.coStop, t.coYield, t.goexit = nil, nil, nil, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		next()
	}()
	<-done
}

// park yields the coroutine until the scheduler (or a successor naming
// this thread in ex.resume) resumes it, honoring kills and pool closure.
func (t *Thread) park() {
	if !t.coYield(struct{}{}) {
		panic(stopSignal{})
	}
	if t.killed {
		t.killed = false
		panic(killedSignal{})
	}
}

// sync publishes the next event and parks until the scheduler grants it.
// On return the thread holds the baton and must perform exactly that event.
func (t *Thread) sync(kind OpKind, obj ObjID) {
	if t.ex.killing {
		// The schedule is over and this thread is unwinding from a kill;
		// the scheduling op comes from deferred cleanup (say a deferred
		// Unlock below a killed Cond.Wait). There is no scheduler left to
		// grant it: re-raise the kill so the unwind skips the operation and
		// keeps going. Without this the thread would park forever mid-unwind
		// — and a pooled execution would later resume that stale unwind in
		// the middle of a fresh schedule.
		panic(killedSignal{})
	}
	t.seq++
	var objHash uint64
	if obj != 0 {
		objHash = t.ex.obj(obj).hash
	} else if kind == OpJoin {
		// A join carries the joined thread's path hash so traces are
		// self-describing: fingerprints and the crosscheck dependence
		// oracle can resolve the join edge without out-of-band state.
		// joinTarget is always set here (Thread.Join assigns it first, and
		// deferred priming never caches joins — see deferrable).
		objHash = t.ex.threads[t.joinTarget].pathHash
	}
	ev := Event{TID: t.id, Seq: t.seq, Kind: kind, Obj: obj, PathHash: t.pathHash, ObjHash: objHash}
	if t.deferredPrime {
		// Deferred priming already published this thread's first event from
		// the spawn memo and the scheduler has just granted it; the prologue
		// ran late and must land on exactly the cached event. A mismatch
		// means the program's prologue is nondeterministic, which the
		// substrate's determinism contract forbids.
		t.deferredPrime = false
		if ev != t.next {
			panic(fmt.Sprintf("sched: deferred priming diverged at %s: prologue published %+v, memo predicted %+v (nondeterministic program prologue)", t.path, ev, t.next))
		}
		t.state = tsRunning
		return
	}
	t.next = ev
	t.state = tsReady
	if t.ex.fast {
		if t.ex.syncPoint(t) {
			// Chose itself: continue inline, zero switches.
			t.state = tsRunning
			return
		}
		t.park()
		t.state = tsRunning
		return
	}
	// Slow path: parking with no successor returns the baton to the
	// scheduler loop; the next resume is this event's grant.
	t.park()
	t.state = tsRunning
}

// Go spawns a child thread running body and returns its handle. As in the
// paper's runtime, creation is not itself a scheduling event: the parent
// keeps running until its next event, and the child becomes schedulable
// once it has run to its first event.
func (t *Thread) Go(body func(*Thread)) *Handle {
	c := t.ex.addThread(t, body)
	t.ex.pending = append(t.ex.pending, spawnRec{parent: t.id, child: c.id})
	return carve(&t.ex.handles, Handle{tid: c.id, ex: t.ex})
}

// Handle names a spawned thread for joining.
type Handle struct {
	tid ThreadID
	ex  *Execution
}

// TID returns the runtime thread ID behind the handle.
func (h *Handle) TID() ThreadID { return h.tid }

// Join blocks (as an event) until the handled thread has exited.
func (t *Thread) Join(h *Handle) {
	t.joinTarget = h.tid
	t.sync(OpJoin, 0)
}

// JoinAll joins a set of handles in order.
func (t *Thread) JoinAll(hs ...*Handle) {
	for _, h := range hs {
		t.Join(h)
	}
}

// Yield is a pure scheduling point: an event with no shared object. Use it
// inside spin loops so the scheduler can preempt them.
func (t *Thread) Yield() { t.sync(OpYield, 0) }

// Assert records bug bugID and aborts the schedule if cond is false. Like an
// object name, bugID must come from a bounded set (a pool interns the
// message built from it): put what varies per schedule in Assertf's message.
func (t *Thread) Assert(cond bool, bugID string) {
	if !cond {
		t.fail(bugID, t.ex.internJoin("assertion failed: ", bugID))
	}
}

// fail aborts the schedule with a program failure. The panic value points
// into the thread and the standard messages are interned, so a failing
// schedule allocates only the Failure it returns.
func (t *Thread) fail(bugID, msg string) {
	t.failed = assertFailure{bugID: bugID, msg: msg}
	panic(&t.failed)
}

// Assertf is Assert with a formatted diagnostic message.
func (t *Thread) Assertf(cond bool, bugID, format string, args ...any) {
	if !cond {
		t.fail(bugID, fmt.Sprintf(format, args...))
	}
}

// Fail unconditionally reports bug bugID, from a bounded set as Assert's is,
// and aborts the schedule.
func (t *Thread) Fail(bugID string) {
	t.fail(bugID, t.ex.internJoin("failure: ", bugID))
}
