package sched

// The fast engine: batched run-to-next-decision.
//
// The slow loop in execution.go parks the program goroutine and wakes the
// scheduler goroutine at every event — two channel handoffs per step — and
// rebuilds the enabled set by scanning every thread. The fast engine keeps
// the baton on the program side: after a thread publishes its next event,
// the *same goroutine* applies the previous event's enabledness effects,
// notifies the algorithm, decides the next step, and either continues
// inline (when it chose itself — zero handoffs) or hands the baton
// directly to the chosen thread (one handoff). The scheduler goroutine
// only runs at the very start and end of a schedule.
//
// Enabledness is tracked incrementally in a 64-bit mask instead of being
// rebuilt per step: classify() sets or clears a thread's bit when it
// publishes an event, and applyEffect() re-derives the bits of threads
// gated on an object when an event could have changed that object
// (tracked per object in objState.waitMask). Programs with ≥64 threads
// bail out to the verbatim slow loop mid-schedule (see bailOut). Nothing
// else selects the slow loop but Options.DisableBatching: a Tracer is
// called from here (execute), an Atlas likewise (decide).
//
// Both engines must be bit-identical: same decisions consume the same
// random draws, hashes mix the same values, failures carry the same steps,
// a tracer is shown the same Decision with the same State behind it.
// The decision procedure below mirrors the slow loop's order exactly —
// failure, deadlock, truncation, then choose — and algorithm callbacks see
// the same State contents at the same times (State.Enabled materializes
// from the decision-time mask during spawn notifications, matching the
// stale slice the slow loop exposes there).

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// maxFastThreads is the bitmask capacity; thread IDs at or beyond it force
// a mid-schedule bail to the slow loop.
const maxFastThreads = 64

// IndexChooser is an optional Algorithm fast path: an algorithm whose
// Next draws exactly one uniform index into st.Enabled() can instead
// return that index and skip the slice materialization entirely.
// NextIndex(n) must consume the same random draws Next would and return
// the position (0-based, ascending TID order) of the chosen thread.
type IndexChooser interface {
	NextIndex(n int) int
}

// SourceChooser is a further optional fast path layered on IndexChooser:
// after Begin, the scheduler hands over the raw source behind the Begin
// rng. An algorithm that can replicate its draw algorithm bit-exactly
// against the source (consuming identical values in identical order) may
// use it to skip the rand.Rand method layers on the per-decision path.
// BeginSource is called once per schedule, immediately after Begin.
type SourceChooser interface {
	BeginSource(src rand.Source)
}

func tbit(id ThreadID) uint64 {
	if uint(id) >= maxFastThreads {
		return 0
	}
	return 1 << uint(id)
}

// classify derives t's enabled bit from its freshly published next event,
// registering it in the gating object's waitMask when the event can block.
// Mirrors enabled() in execution.go.
func (ex *Execution) classify(t *Thread) {
	b := tbit(t.id)
	ex.enabledStale = true
	switch t.next.Kind {
	case OpLock, OpWakeLock:
		o := &ex.objs[t.next.Obj-1]
		o.waitMask |= b
		t.gated = t.next.Obj
		if o.owner == -1 && o.readers == 0 {
			ex.enabledBits |= b
		} else {
			ex.enabledBits &^= b
		}
	case OpRLock:
		o := &ex.objs[t.next.Obj-1]
		o.waitMask |= b
		t.gated = t.next.Obj
		if o.owner == -1 {
			ex.enabledBits |= b
		} else {
			ex.enabledBits &^= b
		}
	case OpSemP:
		o := &ex.objs[t.next.Obj-1]
		o.waitMask |= b
		t.gated = t.next.Obj
		if o.sem > 0 {
			ex.enabledBits |= b
		} else {
			ex.enabledBits &^= b
		}
	case OpJoin:
		tgt := ex.threads[t.joinTarget]
		if tgt.state == tsFinished {
			ex.enabledBits |= b
		} else {
			ex.enabledBits &^= b
			tgt.joinWaiters |= b
		}
	default:
		ex.enabledBits |= b
	}
}

// applyEffect re-derives the bits of threads whose published event is
// gated on an object ev may have changed. Called once per executed event,
// at the next scheduling point (after the event's effect has run).
func (ex *Execution) applyEffect(ev Event) {
	switch ev.Kind {
	case OpLock, OpUnlock, OpRLock, OpRUnlock, OpWakeLock:
		ex.refreshMutex(&ex.objs[ev.Obj-1])
	case OpRMW:
		if o := &ex.objs[ev.Obj-1]; o.kind == ObjMutex {
			ex.refreshMutex(o) // TryLock
		}
	case OpWait:
		// The wait released the cond's mutex.
		ex.refreshMutex(&ex.objs[ex.objs[ev.Obj-1].condMu-1])
	case OpSemP, OpSemV:
		o := &ex.objs[ev.Obj-1]
		if o.waitMask != 0 {
			ex.enabledStale = true
			if o.sem > 0 {
				ex.enabledBits |= o.waitMask
			} else {
				ex.enabledBits &^= o.waitMask
			}
		}
	}
}

func (ex *Execution) refreshMutex(o *objState) {
	m := o.waitMask
	if m == 0 {
		return
	}
	ex.enabledStale = true
	if o.readers == 0 {
		// Writers, wakelocks and readers all agree: enabled iff free.
		if o.owner == -1 {
			ex.enabledBits |= m
		} else {
			ex.enabledBits &^= m
		}
		return
	}
	// Active readers (owner is -1 by invariant): pending read locks are
	// enabled, pending write locks and wakelocks are not.
	for q := m; q != 0; {
		b := q & -q
		q &^= b
		if ex.threads[bits.TrailingZeros64(b)].next.Kind == OpRLock {
			ex.enabledBits |= b
		} else {
			ex.enabledBits &^= b
		}
	}
}

// materializeFrom writes the mask's set bits (ascending, which is TID
// order) into the State's enabled buffer.
func (ex *Execution) materializeFrom(mask uint64) {
	e := ex.state.enabled[:0]
	for m := mask; m != 0; {
		b := m & -m
		m &^= b
		e = append(e, ThreadID(bits.TrailingZeros64(b)))
	}
	ex.state.enabled = e
}

// kthEnabled returns the k-th (0-based) set bit of the enabled mask.
func (ex *Execution) kthEnabled(k int) ThreadID {
	m := ex.enabledBits
	for ; k > 0; k-- {
		m &= m - 1
	}
	return ThreadID(bits.TrailingZeros64(m))
}

// syncPoint is the fast-path scheduling point: t has just published its
// next event. Returns true when t itself was chosen to continue (the
// caller keeps running without parking); false when the baton went
// elsewhere (the caller must park on its gate).
func (ex *Execution) syncPoint(t *Thread) bool {
	ex.inEngine = true
	if ex.primingT == t {
		ex.recordPrime(t)
	}
	ex.classify(t)
	return ex.cycle(t)
}

// sleepPoint is syncPoint for a thread entering a condition wait: it has
// no published event, so its bit just clears.
func (ex *Execution) sleepPoint(t *Thread) {
	ex.inEngine = true
	ex.enabledBits &^= tbit(t.id)
	ex.enabledStale = true
	ex.cycle(t)
}

// finishPoint is syncPoint for a thread that has exited: release its
// joiners and carry on.
func (ex *Execution) finishPoint(t *Thread) {
	ex.inEngine = true
	if ex.primingT == t {
		// The prologue failed or finished without publishing an event; its
		// memo entry keeps no first event.
		ex.primingT = nil
		t.primePoison = false
	}
	ex.liveCount--
	ex.enabledBits &^= tbit(t.id)
	if t.joinWaiters != 0 {
		ex.enabledBits |= t.joinWaiters
		t.joinWaiters = 0
	}
	ex.enabledStale = true
	ex.cycle(t)
}

// cycle completes one scheduling cycle on the caller's goroutine: prime
// any newly spawned threads (as a grant chain — each primed thread primes
// the next, so the chain costs one handoff per new thread), then finish
// the step and decide who runs next.
func (ex *Execution) cycle(t *Thread) bool {
	if ex.priming || ex.unprimed > 0 {
		ex.priming = true
		return ex.primeChain(t)
	}
	return ex.endCycle(t)
}

// primeChain grants the next unprimed thread and parks the caller; the
// last link finds nothing left and ends the cycle itself. Scanning is by
// ascending index from a monotonic cursor — the same order primeNew uses.
//
// Deferred priming: when the thread's spawn-memo entry carries a usable
// first event captured by an earlier schedule (see recordPrime), the event
// is published from the cache and the thread classified in place — no
// handoff at all; the goroutine first wakes when the scheduler actually
// grants the event, runs its prologue late, and verifies it lands on the
// cached event (see Thread.sync). Threads primed for real are marked in
// ex.primingT so their prologue effects can veto future deferral.
func (ex *Execution) primeChain(t *Thread) bool {
	for ex.primeIdx < len(ex.threads) {
		u := ex.threads[ex.primeIdx]
		ex.primeIdx++
		if u.state != tsUnprimed {
			continue
		}
		if u.memoP >= 0 {
			if e := &ex.spawnMemo[u.memoP][u.memoI]; e.evOK && e.path == u.path && ex.deferrable(e) {
				ex.unprimed--
				u.next = Event{TID: u.id, Seq: 1, Kind: e.firstEv.Kind, Obj: e.firstEv.Obj, PathHash: u.pathHash, ObjHash: e.firstEv.ObjHash}
				u.state = tsReady
				u.deferredPrime = true
				ex.classify(u)
				continue
			}
		}
		ex.unprimed--
		u.state = tsRunning
		ex.primingT = u
		ex.inEngine = false
		ex.resume = u
		return false
	}
	ex.priming = false
	return ex.endCycle(t)
}

// endCycle applies the executed event's enabledness effects, notifies the
// algorithm (spawns, then the event), and decides the next step.
func (ex *Execution) endCycle(t *Thread) bool {
	ev := ex.curEv
	if ev.Kind != OpInvalid {
		ex.applyEffect(ev)
	}
	if len(ex.pending) > 0 {
		pending := ex.pending
		ex.pending = ex.pending[:0]
		if so, ok := ex.alg.(SpawnObserver); ok {
			// Spawn notifications observe the enabled set as of the last
			// decision, exactly as the slow loop's primeNew (which runs
			// before the rebuild) exposes it.
			ex.notifying = true
			for _, p := range pending {
				so.ObserveSpawn(p.parent, p.child, ex.state)
			}
			ex.notifying = false
		}
	}
	if ex.bailReq {
		return ex.bailOut(t)
	}
	if ex.alg != nil && ev.Kind != OpInvalid {
		ex.alg.Observe(ev, ex.state)
	}
	return ex.decide(t)
}

// decide mirrors the slow loop's per-iteration order bit for bit:
// failure, deadlock, truncation, then choose and execute. Returns true
// when t chose itself.
func (ex *Execution) decide(t *Thread) bool {
	if ex.failed {
		return ex.finishSchedule(t)
	}
	n := bits.OnesCount64(ex.enabledBits)
	if n == 0 {
		if ex.liveCount > 0 {
			ex.reportDeadlock()
		}
		return ex.finishSchedule(t)
	}
	if ex.steps >= ex.maxSteps {
		ex.truncated = true
		return ex.finishSchedule(t)
	}

	var tid ThreadID
	switch {
	case ex.replayCp != nil:
		// A checkpointed forced step: the enabled set must be the
		// singleton the capture run saw.
		tid = ex.replayCp.forced[ex.replayPos]
		ex.replayPos++
		if ex.enabledBits != tbit(tid) || tbit(tid) == 0 {
			panic("sched: checkpoint replay diverged from its capture run")
		}
	case n == 1:
		tid = ThreadID(bits.TrailingZeros64(ex.enabledBits))
	case ex.idx != nil:
		tid = ex.kthEnabled(ex.idx.NextIndex(n))
	case ex.alg != nil:
		if ex.enabledStale {
			ex.materializeFrom(ex.enabledBits)
			ex.enabledStale = false
		}
		tid = ex.alg.Next(ex.state)
		if tid < 0 || tid >= ThreadID(len(ex.threads)) || ex.enabledBits&tbit(tid) == 0 {
			panic(fmt.Sprintf("sched: algorithm %s chose disabled thread T%d", ex.alg.Name(), tid))
		}
	default:
		tid = ThreadID(bits.TrailingZeros64(ex.enabledBits))
	}
	if ex.capturing {
		if n == 1 {
			ex.captureForced(tid)
		} else {
			ex.closeCapture()
		}
	}
	if ex.atlas != nil && n > 1 {
		ex.atlasDepth++
		ex.atlasHash = fnvMix(ex.atlasHash, uint64(tid)<<8|uint64(n))
		ex.atlas.Decision(ex.atlasDepth, n, ex.atlasHash)
	}
	ex.decisionBits = ex.enabledBits
	return ex.execute(t, tid, n)
}

// execute records the event of the thread chosen out of n enabled ones,
// shows the decision to the tracer, and passes (or keeps) the baton.
// Returns true when t chose itself.
func (ex *Execution) execute(t *Thread, tid ThreadID, n int) bool {
	chosen := ex.threads[tid]
	if chosen.gated != 0 {
		ex.objs[chosen.gated-1].waitMask &^= tbit(tid)
		chosen.gated = 0
	}
	ev := chosen.next
	ex.steps++
	if cp := ex.replayCp; cp == nil {
		ex.recordEvent(ev)
	} else {
		// A replayed forced step folds only the Δ hash, which algorithm Info
		// predicates may consume per event; the last one adopts the rest
		// from the checkpoint. Spelled out as recordEvent does: a helper
		// taking the Event by value copies it per step, which
		// BenchmarkPrefixFork reads as +25 % on the full path.
		if ex.interesting != nil && ex.interesting(ev) {
			ex.deltaHash = fnvMix(fnvMix(ex.deltaHash, ev.PathHash), uint64(ev.Kind)<<32^ev.ObjHash)
		}
		if ex.replayPos == len(cp.forced) {
			ex.replayed()
		}
	}
	ex.curEv = ev
	if ex.tracer != nil {
		// Before the event executes and with enabledBits still the mask the
		// choice was drawn from, so st.Enabled() materializes exactly that
		// set; still inEngine, so a panicking tracer surfaces as an engine
		// panic rather than a program failure. An IndexChooser pick counts
		// as consulted, as the slow loop's Next does.
		ex.tracer.Decide(Decision{
			Step: ex.steps - 1, Chosen: tid, Enabled: n, Consulted: n > 1 && ex.alg != nil, Event: ev,
		}, ex.state)
	}
	ex.inEngine = false
	if chosen == t {
		return true
	}
	chosen.state = tsRunning
	ex.resume = chosen
	return false
}

// finishSchedule ends the schedule from the program side: close any open
// capture and park with no successor, returning the baton to the
// orchestrator, which kills the survivors.
func (ex *Execution) finishSchedule(t *Thread) bool {
	if ex.capturing {
		ex.closeCapture()
	}
	ex.inEngine = false
	ex.resume = nil
	return false
}

// bailOut permanently switches this schedule to the slow loop (a thread
// ID outgrew the bitmask). The orchestrator finishes the interrupted
// cycle — the Observe call endCycle skipped — and runs the verbatim loop.
// Any open capture is discarded: such programs never get checkpoints.
func (ex *Execution) bailOut(t *Thread) bool {
	ex.fast = false
	ex.bailed = true
	if ex.capturing {
		ex.capturing = false
		ex.capture = nil
	}
	if ex.replayCp != nil {
		// A bail after the prefix is fine — the capture run sealed before
		// its own bail and the slow loop continues identically — but a bail
		// inside the prefix means the capture run took the fast path through
		// decisions this run cannot, which (same program, same options)
		// should be impossible.
		panic("sched: checkpoint replay bailed out inside the prefix (capture ran it on the fast path)")
	}
	ex.inEngine = false
	ex.resume = nil
	return false
}
