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
// Enabledness is tracked incrementally in a thread set (tidSet, a word per
// 64 thread IDs) instead of being rebuilt per step: classify() adds or
// removes a thread when it publishes an event, and refresh() re-derives
// the members of an object's gate — the threads whose published event
// waits on it — after an event that could have changed that object. gateOpen is
// the one rule both apply. Every thread count runs here; the slow loop
// runs only under Options.DisableBatching, as the reference the oracles
// compare this engine against. A Tracer, the engine's only observer hook
// (the atlas and obs.Metrics attach as one), is called from here (execute).
//
// Both engines must be bit-identical: same decisions consume the same
// random draws, hashes mix the same values, failures carry the same steps,
// a tracer is shown the same Decision with the same State behind it.
// The decision procedure below mirrors the slow loop's order exactly —
// failure, deadlock, truncation, then choose — and algorithm callbacks see
// the same State contents at the same times (State.Enabled materializes
// from the decision-time snapshot during spawn notifications, matching the
// stale slice the slow loop exposes there).

import (
	"fmt"
	"math/bits"
	"math/rand"
)

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

// tidSet is a set of thread IDs, a bit per ID and a word per 64 of them:
// the enabled set and its decision-time snapshot, an object's gate, the
// threads blocked in a join. add grows the set; a missing word reads empty
// to has.
type tidSet []uint64

func (s tidSet) has(id ThreadID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

func (s *tidSet) add(id ThreadID) {
	w := int(uint(id) >> 6)
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// del removes id, whose word s has.
func (s tidSet) del(id ThreadID) { s[uint(id)>>6] &^= 1 << (uint(id) & 63) }

func (s tidSet) count() (n int) {
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// kth returns the k-th (0-based) member in ascending order, for k below
// count().
func (s tidSet) kth(k int) ThreadID {
	i := 0
	for ; i < len(s)-1; i++ {
		c := bits.OnesCount64(s[i])
		if k < c {
			break
		}
		k -= c
	}
	w := s[i]
	for ; k > 0; k-- {
		w &= w - 1
	}
	return i<<6 + bits.TrailingZeros64(w)
}

// rank returns the number of members below id, a member itself.
func (s tidSet) rank(id ThreadID) (n int) {
	w := int(uint(id) >> 6)
	for _, x := range s[:w] {
		n += bits.OnesCount64(x)
	}
	return n + bits.OnesCount64(s[w]&(1<<(uint(id)&63)-1))
}

// gateOpen is the batched engine's one enabledness rule for an event that
// waits on an object: whether a pending k (OpLock, OpWakeLock, OpRLock or
// OpSemP) can run on o now. Without active readers a mutex's pending
// kinds agree (refresh relies on it). Mirrors enabled() in execution.go.
func gateOpen(k OpKind, o *objState) bool {
	switch k {
	case OpRLock:
		return o.owner == -1
	case OpSemP:
		return o.sem > 0
	}
	// A writer (or a wakelock) additionally waits for readers to drain.
	return o.owner == -1 && o.readers == 0
}

// classify derives t's membership of the enabled set from its freshly
// published next event, entering it in the gate of the object the event
// waits on, or among the joiners while its join target runs.
func (ex *Execution) classify(t *Thread) {
	ex.enabledStale = true
	run := true
	switch k := t.next.Kind; k {
	case OpLock, OpWakeLock, OpRLock, OpSemP:
		o := &ex.objs[t.next.Obj-1]
		o.gate.add(t.id)
		t.gated = t.next.Obj
		run = gateOpen(k, o)
	case OpJoin:
		if ex.threads[t.joinTarget].state != tsFinished {
			ex.joiners.add(t.id)
			run = false
		}
	}
	if run {
		ex.enabledSet.add(t.id)
	} else {
		ex.enabledSet.del(t.id)
	}
}

// refresh re-derives the enabled bits of the threads in o's gate, after an
// event that may have changed o. Without active readers every pending kind
// on o agrees, so one verdict, for the kind o's gate holds, covers a word
// of the gate.
func (ex *Execution) refresh(o *objState) {
	k := OpLock
	if o.kind == ObjSem {
		k = OpSemP
	}
	for i, w := range o.gate {
		for w != 0 {
			b := w
			if o.readers > 0 {
				b = w & -w
				k = ex.threads[i<<6+bits.TrailingZeros64(w)].next.Kind
			}
			if gateOpen(k, o) {
				ex.enabledSet[i] |= b
			} else {
				ex.enabledSet[i] &^= b
			}
			w &^= b
			ex.enabledStale = true
		}
	}
}

// materializeFrom writes the set's members (ascending, which is TID order)
// into the State's enabled buffer.
func (ex *Execution) materializeFrom(s tidSet) {
	e := ex.state.enabled[:0]
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			e = append(e, i<<6+bits.TrailingZeros64(w))
		}
	}
	ex.state.enabled = e
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
// no published event, so it just leaves the enabled set.
func (ex *Execution) sleepPoint(t *Thread) {
	ex.inEngine = true
	ex.enabledSet.del(t.id)
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
	ex.enabledSet.del(t.id)
	for i, w := range ex.joiners {
		for ; w != 0; w &= w - 1 {
			if u := i<<6 + bits.TrailingZeros64(w); ex.threads[u].joinTarget == t.id {
				ex.joiners.del(u)
				ex.enabledSet.add(u)
			}
		}
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

// endCycle applies the executed event's enabledness effects (a variable's
// gate is empty), notifies the algorithm (spawns, then the event), and
// decides the next step.
func (ex *Execution) endCycle(t *Thread) bool {
	ev := ex.curEv
	switch ev.Kind {
	case OpLock, OpUnlock, OpRLock, OpRUnlock, OpWakeLock, OpRMW, OpSemP, OpSemV:
		ex.refresh(&ex.objs[ev.Obj-1])
	case OpWait:
		ex.refresh(&ex.objs[ex.objs[ev.Obj-1].condMu-1]) // the wait released the cond's mutex
	}
	if len(ex.pending) > 0 {
		pending := ex.pending
		ex.pending = ex.pending[:0]
		if so := ex.spawnObs; so != nil {
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
	n := ex.enabledSet.count()
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
		if n != 1 || !ex.enabledSet.has(tid) {
			panic("sched: checkpoint replay diverged from its capture run")
		}
	case n == 1 || ex.alg == nil:
		tid = ex.enabledSet.kth(0)
	case ex.idx != nil:
		tid = ex.enabledSet.kth(ex.idx.NextIndex(n))
	default:
		if ex.enabledStale {
			ex.materializeFrom(ex.enabledSet)
			ex.enabledStale = false
		}
		tid = ex.alg.Next(ex.state)
		if !ex.enabledSet.has(tid) {
			panic(fmt.Sprintf("sched: algorithm %s chose disabled thread T%d", ex.alg.Name(), tid))
		}
	}
	if ex.capturing {
		if n == 1 {
			ex.captureForced(tid)
		} else {
			ex.closeCapture()
		}
	}
	if ex.spawnObs != nil {
		// Only spawn notifications read the snapshot (State.Enabled).
		d := ex.decisionSet[:len(ex.enabledSet)]
		for i, w := range ex.enabledSet {
			d[i] = w
		}
	}
	return ex.execute(t, tid, n)
}

// execute records the event of the thread chosen out of n enabled ones,
// shows the decision to the tracer, and passes (or keeps) the baton.
// Returns true when t chose itself.
func (ex *Execution) execute(t *Thread, tid ThreadID, n int) bool {
	chosen := ex.threads[tid]
	if chosen.gated != 0 {
		ex.objs[chosen.gated-1].gate.del(tid)
		chosen.gated = 0
	}
	ev := chosen.next
	ex.steps++
	if cp := ex.replayCp; cp == nil {
		ex.recordEvent(&chosen.next)
	} else if ex.replayPos == len(cp.forced) {
		// A replayed forced step folds nothing; the last one adopts the
		// hashes the checkpoint captured.
		ex.replayed()
	}
	ex.curEv = ev
	if ex.tracer != nil {
		// Before the event executes and with the enabled set still the one the
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
