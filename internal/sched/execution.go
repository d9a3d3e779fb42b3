package sched

import (
	"fmt"
	"math/rand"
	"strconv"
)

type threadState uint8

const (
	tsUnprimed threadState = iota // coroutine started, first event not yet published
	tsReady                       // parked with a published next event
	tsRunning                     // holds the baton (transient)
	tsSleeping                    // asleep in a condition wait, no next event
	tsFinished                    // exited
)

// Execution drives one schedule of one program. All state is confined:
// exactly one goroutine (a virtual thread's coroutine or the scheduler
// loop) runs at any time, so no field needs locking. An Execution owned by
// a Pool is reused across schedules — reset re-initializes the
// per-schedule fields while the allocation-heavy buffers (thread structs
// and their coroutines, the object and trace slices, the path/name maps)
// persist.
type Execution struct {
	opts       Options
	alg        Algorithm
	progRand   *rand.Rand
	progSrc    rand.Source // progRand's source, for fast re-seeding
	progSeeded bool        // progRand seeded for this schedule (lazy)
	algRand    *rand.Rand
	algSrc     rand.Source // algRand's source, for fast re-seeding

	threads []*Thread
	objs    []objState
	objSeen map[string]int // name collision counter

	// resume names the coroutine the trampoline (pump) transfers the baton
	// to after the current one parks; nil parks the whole schedule phase —
	// the schedule is over, or (slow loop) the thread published.
	resume  *Thread
	pending []spawnRec // spawns awaiting priming + algorithm notification

	// gen counts resets: together with the Execution's identity it forms
	// the Epoch (binding.go) that scopes frontend-cached objects to one
	// schedule. Monotonic per Execution, bumped before anything else runs.
	gen uint64

	steps     int
	maxSteps  int
	failure   Failure // the first failure; meaningful when failed
	failed    bool
	truncated bool
	aborted   bool
	behavior  string

	// Fast-engine state (fast.go). persistent marks pooled executions,
	// whose worker coroutines park between schedules instead of exiting.
	fast         bool
	persistent   bool
	inEngine     bool   // engine/algorithm code running on a program goroutine
	enabledSet   tidSet // TIDs whose published event is executable now
	enabledStale bool   // state.enabled slice out of date vs enabledSet
	decisionSet  tidSet // enabledSet as of the last decision, kept for spawnObs
	joiners      tidSet // threads whose published join waits on a live thread
	notifying    bool   // inside ObserveSpawn notifications
	liveCount    int    // threads not yet finished
	unprimed     int    // threads not yet run to their first event
	primeIdx     int    // monotonic priming cursor (fast engine)
	priming      bool   // a priming chain is in flight
	killing      bool   // killRemaining in progress
	curEv        Event  // last executed (or executing) event
	idx          IndexChooser
	spawnObs     SpawnObserver

	// Prefix checkpointing (checkpoint.go).
	capture   *Checkpoint // the capture (RunPrefix); nil until its first forced decision
	replayCp  *Checkpoint // replaying from (RunFrom); nil once past the prefix
	replayPos int
	capturing bool // capturing the forced prefix, not yet sealed

	ilvHash  uint64
	classAcc uint64 // commutation-canonical class fingerprint accumulator
	filter   func(Event) bool
	tracer   Tracer

	state *State

	// Reuse pools, persistent across resets. freeThreads holds finished
	// Thread structs (with their parked coroutines) from earlier schedules;
	// names interns path and object-name strings so the spawn/create hot
	// path stops allocating once the first schedule has seen a name.
	freeThreads  []*Thread
	goexits      int // this schedule's threads parked inside a Goexit (runBody)
	names        map[string]string
	deadlockMsgs int // deadlock reports interned into names (reportDeadlock)
	nameBuf      []byte

	// Per-schedule arenas (see carve): every handle a schedule hands out —
	// spawn handles, the {id, ex} handle behind each primitive, and the
	// composite objects built from them — lives here, not on the heap.
	handles    []Handle
	objHandles []handle
	waitGroups []WaitGroup
	onces      []Once
	chans      []chanParts

	// spawnMemo caches child paths by (parent TID, spawn index): a pooled
	// execution re-creates the same spawn tree every schedule, so after
	// warm-up addThread skips the path build, the intern lookup and the
	// path hash. Entries are validated against the parent's current path,
	// so schedules that assign TIDs differently just miss and rebuild.
	// Entries additionally cache the thread's first published event for
	// deferred priming (see primeChain).
	spawnMemo [][]spawnPath
	// primingT is the thread currently running its prologue under a real
	// priming grant of the fast engine. Anything it does before its first
	// publish that deferred priming could not reproduce at a later time —
	// creating an object, spawning, drawing ProgRand, reporting a
	// behaviour — poisons its memo entry (see Thread.primePoison).
	primingT *Thread
	// lastProg is the program of the previous run, retained (so its closure
	// cannot be collected and its address recycled) to detect a pool being
	// repointed at a different program, which invalidates every cached
	// first event (see invalidateDeferred).
	lastProg func(*Thread)
}

type spawnPath struct {
	parentPath string // memo valid only while this TID's path matches
	path       string
	hash       uint64

	// firstEv is the first event this logical thread published, captured
	// during a real priming run of the fast engine. evOK marks it usable
	// for deferred priming: the prologue ran to its first sync without
	// any effect that pins it to priming time, so later schedules can
	// publish the event from the cache and start the goroutine lazily.
	firstEv Event
	evOK    bool
}

type spawnRec struct {
	parent, child ThreadID
}

type objState struct {
	kind ObjKind
	name string
	hash uint64

	// gate holds the threads whose published event waits on this object
	// (fast engine): pending OpLock/OpWakeLock/OpRLock on a mutex, pending
	// OpSemP on a semaphore.
	gate tidSet

	// Class-fingerprint state (see classEvent): lastWriteH is the hash of
	// the last writer-like event on this object, readAcc the commutative
	// (wrapping-sum) accumulator of reader hashes since that write.
	lastWriteH uint64
	readAcc    uint64

	val int64 // ObjVar
	ref any   // ObjVar: a Ref[E]'s *E cell, kept with the slot across schedules

	owner   ThreadID // ObjMutex: writer owner, -1 when free
	readers int      // ObjMutex: active reader count (RWMutex)

	condMu  ObjID      // ObjCond: associated mutex
	waiters []ThreadID // ObjCond: sleeping threads, FIFO

	sem int // ObjSem: current count
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// HashName returns the stable 64-bit hash used for Event.ObjHash and
// Event.PathHash, so Δ predicates can match object names without strings.
func HashName(name string) uint64 { return fnv1a(fnvOffset, name) }

func fnv1a(h uint64, data string) uint64 {
	for i := 0; i < len(data); i++ {
		h = (h ^ uint64(data[i])) * fnvPrime
	}
	return h
}

// fnvMix folds one 64-bit word into a running fingerprint. The mix is a
// single multiply–xorshift round (golden-ratio constant) rather than eight
// byte-wise FNV rounds: fingerprints are only ever compared for equality
// or used as map keys within one process, so the mix just has to chain
// order-sensitively and spread well — and it sits on the per-event hot
// path, where the serial 8-multiply FNV dependency chain was measurable.
func fnvMix(h uint64, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// Run executes one schedule of prog under alg and returns its Result.
// A nil alg falls back to always picking the lowest enabled TID (a
// deterministic left-most schedule, useful for smoke tests). Callers
// running many schedules of one program should prefer Pool.Run, which
// reuses the execution buffers across schedules.
func Run(prog func(*Thread), alg Algorithm, opts Options) *Result {
	return new(Execution).runWith(prog, alg, opts, false, nil, new(Result))
}

// reset prepares the Execution for a fresh schedule, recycling every
// buffer a previous schedule left behind. Re-seeding the persistent rand
// streams yields exactly the streams a fresh rand.New(rand.NewSource(seed))
// would produce, so pooled and one-shot executions are bit-identical.
func (ex *Execution) reset(opts Options, alg Algorithm) {
	ex.gen++
	ex.opts = opts
	ex.alg = alg
	// progRand is seeded lazily on first ProgRand call: most programs
	// never draw from it, and seeding costs microseconds per schedule.
	ex.progSeeded = false
	for _, t := range ex.threads {
		ex.freeThreads = append(ex.freeThreads, t)
	}
	ex.threads = ex.threads[:0]
	ex.objs = ex.objs[:0]
	ex.pending = ex.pending[:0]
	ex.handles = ex.handles[:0]
	ex.objHandles = ex.objHandles[:0]
	ex.waitGroups = ex.waitGroups[:0]
	ex.onces = ex.onces[:0]
	ex.chans = ex.chans[:0]
	if ex.objSeen == nil {
		ex.objSeen = make(map[string]int, 8)
		ex.names = make(map[string]string, 16)
		ex.deadlockMsgs = 0
	} else {
		clear(ex.objSeen)
	}
	ex.steps = 0
	ex.maxSteps = opts.Base.Normalized().MaxSteps
	ex.failed = false
	ex.truncated = false
	ex.aborted = false
	ex.behavior = ""
	ex.ilvHash = fnvOffset
	ex.classAcc = 0
	ex.filter = opts.TraceFilter
	ex.tracer = opts.Tracer
	if ex.state == nil {
		ex.state = &State{ex: ex}
	} else {
		ex.state.enabled = ex.state.enabled[:0]
	}

	ex.fast = !opts.DisableBatching
	ex.inEngine = false
	ex.enabledSet = ex.enabledSet[:0]
	ex.enabledStale = true
	ex.decisionSet = ex.decisionSet[:0]
	ex.joiners = ex.joiners[:0]
	ex.notifying = false
	ex.liveCount = 0
	ex.unprimed = 0
	ex.primeIdx = 0
	ex.priming = false
	ex.killing = false
	ex.curEv = Event{}
	ex.idx, _ = alg.(IndexChooser)
	ex.spawnObs, _ = alg.(SpawnObserver)
	ex.capturing = false
	ex.capture = nil
	ex.replayCp = nil
	ex.replayPos = 0
	ex.primingT = nil
	ex.resume = nil
}

// runWith runs one schedule and writes its outcome over *res — every field,
// so storage a caller hands in again carries nothing over — and returns res.
func (ex *Execution) runWith(prog func(*Thread), alg Algorithm, opts Options, capture bool, replay *Checkpoint, res *Result) *Result {
	ex.reset(opts, alg)
	ex.checkProg(prog)
	if ex.fast {
		ex.capturing = capture
		ex.replayCp = replay
	}
	if alg != nil {
		if ex.algRand == nil {
			ex.algSrc = newFastSource(opts.Seed + 1)
			ex.algRand = rand.New(ex.algSrc)
		} else {
			ex.algSrc.Seed(opts.Seed + 1)
		}
		alg.Begin(opts.Info, ex.algRand)
		if sc, ok := alg.(SourceChooser); ok {
			sc.BeginSource(ex.algSrc)
		}
	}
	if ex.tracer != nil {
		name := ""
		if alg != nil {
			name = alg.Name()
		}
		ex.tracer.BeginSchedule(name)
	}

	root := ex.addThread(nil, prog)
	if ex.fast {
		// The whole schedule runs on the program coroutines: each
		// scheduling point decides the next step in place (fast.go) and
		// names its successor; pump trampolines the baton between them.
		// The orchestrator takes over again at schedule end.
		ex.priming = true
		ex.unprimed--
		root.state = tsRunning
		ex.pump(root)
	} else {
		ex.primeNew()
		ex.loop()
	}

	// The outcome is taken before the kills: deferred code a killed thread
	// runs while it unwinds (a SetBehavior, an Assert) is not part of the
	// schedule.
	*res = Result{
		Steps:            ex.steps,
		Truncated:        ex.truncated,
		InterleavingHash: ex.ilvHash,
		ClassHash:        ex.classAcc,
		Behavior:         ex.behavior,
		Threads:          len(ex.threads),
	}
	if ex.failed {
		res.failure = ex.failure
		res.Failure = &res.failure
	}
	ex.killRemaining()
	if ex.goexits > 0 {
		ex.retireGoexits()
	}
	if ex.tracer != nil {
		ex.tracer.EndSchedule(res)
	}
	return res
}

// retireGoexits retires the coroutines of the schedule's threads whose
// bodies called runtime.Goexit.
func (ex *Execution) retireGoexits() {
	for _, t := range ex.threads {
		if t.goexit {
			t.retire()
		}
	}
	ex.goexits = 0
}

// loop is the slow scheduling loop: this goroutine decides every step and
// hands the baton out and back, two switches per event. Only
// Options.DisableBatching selects it: it runs whole schedules as the
// reference the crosscheck oracles and the identity golden compare fast.go
// against.
func (ex *Execution) loop() {
	enabled := ex.enabledTIDs()
	for {
		if ex.failed {
			return
		}
		if len(enabled) == 0 {
			if ex.anyAlive() {
				ex.reportDeadlock()
			}
			return
		}
		if ex.steps >= ex.maxSteps {
			ex.truncated = true
			return
		}
		var tid ThreadID
		consulted := false
		switch {
		case len(enabled) == 1:
			tid = enabled[0]
		case ex.alg != nil:
			consulted = true
			tid = ex.alg.Next(ex.state)
			if !containsTID(enabled, tid) {
				panic(fmt.Sprintf("sched: algorithm %s chose disabled thread T%d", ex.alg.Name(), tid))
			}
		default:
			tid = enabled[0]
		}
		t := ex.threads[tid]
		ev := t.next
		ex.steps++
		ex.recordEvent(&ev)
		if ex.tracer != nil {
			// Before grant: st still reflects the pre-event state, so the
			// tracer sees the enabled set the decision was drawn from.
			ex.tracer.Decide(Decision{
				Step: ex.steps - 1, Chosen: tid, Enabled: len(enabled), Consulted: consulted, Event: ev,
			}, ex.state)
		}
		nThreads := len(ex.threads)
		ex.grant(t)
		ex.primeNew()
		// The enabled set is rebuilt (for Observe and the next decision)
		// only when this step could have changed it. A pure event — a
		// shared-variable access or a yield — cannot block or unblock any
		// other thread, so if the executing thread republished an enabled
		// event and spawned nobody, the set of enabled TIDs is unchanged.
		if len(ex.threads) != nThreads || !ex.pureEvent(ev) ||
			t.state != tsReady || !ex.enabled(t) {
			enabled = ex.enabledTIDs()
		}
		if ex.alg != nil {
			ex.alg.Observe(ev, ex.state)
		}
	}
}

// pureEvent reports whether ev can never change another thread's
// enabledness: yields and accesses to plain shared variables qualify; any
// synchronization operation (including an OpRMW TryLock on a mutex) does
// not.
func (ex *Execution) pureEvent(ev Event) bool {
	switch ev.Kind {
	case OpYield:
		return true
	case OpRead, OpWrite, OpRMW:
		return ev.Obj != 0 && ex.objs[ev.Obj-1].kind == ObjVar
	}
	return false
}

func containsTID(tids []ThreadID, tid ThreadID) bool {
	for _, t := range tids {
		if t == tid {
			return true
		}
	}
	return false
}

// recordEvent folds an executed event into the two hashes Result reports:
// the interleaving hash (events TraceFilter passes) and the class hash.
func (ex *Execution) recordEvent(ev *Event) {
	if ex.filter == nil || ex.filter(*ev) {
		ex.ilvHash = fnvMix(fnvMix(ex.ilvHash, ev.PathHash), uint64(ev.Kind)<<32^ev.ObjHash)
	}
	ex.classEvent(ev)
}

// classReader reports whether k only observes its object: concurrent
// readers commute with each other, so the class fingerprint folds them in
// order-insensitively. Every other object operation is writer-like — it
// orders against all accesses of the same object. This is the dependence
// relation of DESIGN.md §11.
func classReader(k OpKind) bool { return k == OpRead || k == OpRLock || k == OpRUnlock }

// classEvent folds ev into the commutation-canonical class fingerprint.
// Each thread carries a hash-clock (Thread.clock) chaining its own events;
// each object carries the hash of its last writer-like event and a
// commutative sum of reader hashes since (objState.lastWriteH/readAcc).
// An event's hash mixes its thread clock with the clocks of its dependence
// predecessors — the last write (readers), the last write plus the pending
// readers (writers), or the joined thread's final clock (join) — and the
// schedule fingerprint is the wrapping sum of event hashes, so independent
// events commute and dependent reorderings do not.
func (ex *Execution) classEvent(ev *Event) {
	t := ex.threads[ev.TID]
	h := fnvMix(t.clock, uint64(ev.Kind)<<32^ev.ObjHash)
	switch {
	case ev.Obj != 0:
		o := &ex.objs[ev.Obj-1]
		if classReader(ev.Kind) {
			h = fnvMix(h, o.lastWriteH)
			o.readAcc += h
		} else {
			h = fnvMix(fnvMix(h, o.lastWriteH), o.readAcc)
			o.lastWriteH = h
			o.readAcc = 0
		}
	case ev.Kind == OpJoin:
		h = fnvMix(h, ex.threads[t.joinTarget].clock)
	}
	t.clock = h
	ex.classAcc += h
}

// pump is the coroutine trampoline: it resumes t and, each time the
// resumed coroutine parks naming a successor in ex.resume, transfers the
// baton onward. It returns when a coroutine parks (or exits) with no
// successor — the schedule is over, or (slow loop) the thread published
// its next event. An engine or algorithm panic inside a coroutine
// propagates out of the resume call onto this stack.
func (ex *Execution) pump(t *Thread) {
	for {
		ex.resume = nil
		t.coNext()
		t = ex.resume
		if t == nil {
			return
		}
	}
}

// grant hands the baton to t, which executes its published event and runs
// until it parks at its next event, sleeps, or exits. grant returns once the
// baton is back with the scheduler.
func (ex *Execution) grant(t *Thread) {
	t.state = tsRunning
	ex.pump(t)
}

// primeNew runs every newly spawned thread up to its first event so its
// next event becomes visible for scheduling, then notifies the algorithm of
// the spawns. Priming can cascade (a child may spawn grandchildren before
// its first event), so iteration is by index over the growing thread list.
func (ex *Execution) primeNew() {
	for i := 0; i < len(ex.threads); i++ {
		if t := ex.threads[i]; t.state == tsUnprimed {
			ex.unprimed--
			t.state = tsRunning
			ex.pump(t)
		}
	}
	if len(ex.pending) == 0 {
		return
	}
	pending := ex.pending
	ex.pending = ex.pending[:0]
	if so := ex.spawnObs; so != nil {
		for _, p := range pending {
			so.ObserveSpawn(p.parent, p.child, ex.state)
		}
	}
}

func (ex *Execution) enabledTIDs() []ThreadID {
	enabled := ex.state.enabled[:0]
	for _, t := range ex.threads {
		if ex.enabled(t) {
			enabled = append(enabled, t.id)
		}
	}
	ex.state.enabled = enabled
	return enabled
}

func (ex *Execution) enabled(t *Thread) bool {
	if t.state != tsReady {
		return false
	}
	switch t.next.Kind {
	case OpLock, OpWakeLock:
		o := &ex.objs[t.next.Obj-1]
		// A writer additionally waits for readers to drain (rwmutex).
		return o.owner == -1 && o.readers == 0
	case OpRLock:
		return ex.objs[t.next.Obj-1].owner == -1
	case OpSemP:
		return ex.objs[t.next.Obj-1].sem > 0
	case OpJoin:
		return ex.threads[t.joinTarget].state == tsFinished
	default:
		return true
	}
}

func (ex *Execution) anyAlive() bool {
	for _, t := range ex.threads {
		if t.state != tsFinished {
			return true
		}
	}
	return false
}

func (ex *Execution) reportDeadlock() {
	buf := append(ex.nameBuf[:0], "no enabled threads; blocked:"...)
	for _, t := range ex.threads {
		var what string
		switch t.state {
		case tsSleeping:
			what = "wait"
		case tsReady:
			what = t.next.Kind.String()
		default:
			continue
		}
		buf = strconv.AppendInt(append(buf, " T"...), int64(t.id), 10)
		buf = append(append(append(buf, '('), what...), ')')
	}
	ex.nameBuf = buf
	// Interned like an assertion's message, but nothing bounds a program's
	// blocked sets as Assert's contract bounds bug IDs: past
	// maxDeadlockMsgs distinct reports a new one is built fresh.
	msg, ok := ex.names[string(buf)]
	if !ok {
		msg = string(buf)
		if ex.deadlockMsgs < maxDeadlockMsgs {
			ex.deadlockMsgs++
			ex.names[msg] = msg
		}
	}
	ex.fail(Failure{Kind: FailDeadlock, BugID: "deadlock", Msg: msg, TID: -1, Step: ex.steps})
}

// maxDeadlockMsgs bounds the deadlock reports one pooled execution interns.
const maxDeadlockMsgs = 256

func (ex *Execution) fail(f Failure) {
	if !ex.failed {
		ex.failure, ex.failed = f, true
	}
	ex.aborted = true
}

// killRemaining unwinds every live thread. All live threads are parked
// (mid-schedule, sleeping, or never started), so each kill resume returns
// once the coroutine has re-parked finished.
func (ex *Execution) killRemaining() {
	ex.aborted = true
	ex.killing = true
	for _, t := range ex.threads {
		if t.state != tsFinished {
			t.killed = true
			ex.pump(t)
		}
	}
}

// carve appends v to a per-schedule arena and returns its address. The
// arenas are truncated by reset, so a pooled session that creates the same
// objects every schedule stops allocating for them after warm-up. What is
// carved is immutable and only meaningful within the schedule that created
// it; a grown arena leaves earlier pointers into the old backing array,
// which stays intact and is simply not reused.
func carve[T any](arena *[]T, v T) *T {
	*arena = append(*arena, v)
	return &(*arena)[len(*arena)-1]
}

// intern canonicalizes the scratch bytes in ex.nameBuf into a string,
// reusing the copy a previous schedule produced. The map lookup with a
// []byte-to-string conversion does not allocate; only the first schedule
// of a pooled Execution pays for the string.
func (ex *Execution) intern() string {
	if s, ok := ex.names[string(ex.nameBuf)]; ok {
		return s
	}
	s := string(ex.nameBuf)
	ex.names[s] = s
	return s
}

// internJoin interns a+b: the name of one part of a composite object
// (name+".mu"), or a standard failure message (prefix+bugID).
func (ex *Execution) internJoin(a, b string) string {
	ex.nameBuf = append(append(ex.nameBuf[:0], a...), b...)
	return ex.intern()
}

func (ex *Execution) addThread(parent *Thread, body func(*Thread)) *Thread {
	if p := ex.primingT; p != nil {
		// A prologue that spawns pins its thread to real priming: deferring
		// it would shift the spawn after later threads' priming, changing
		// TID assignment.
		p.primePoison = true
	}
	var t *Thread
	if n := len(ex.freeThreads); n > 0 {
		// Recycle a finished thread's struct and coroutine. In a
		// persistent execution its worker coroutine is parked waiting for
		// the next schedule's priming resume; in a one-shot execution the
		// old coroutine has fully exited (and the struct is never reused —
		// a one-shot Execution runs a single schedule).
		t = ex.freeThreads[n-1]
		ex.freeThreads = ex.freeThreads[:n-1]
		t.next = Event{}
		t.state = tsUnprimed
		t.seq = 0
		t.spawned = 0
		t.joinTarget = 0
		t.gated = 0
		t.deferredPrime = false
		t.primePoison = false
		t.killed = false
		t.boundFn = nil
		t.heldMutex = t.heldMutex[:0]
		if t.coNext == nil {
			t.start() // its last body ended in runtime.Goexit (retire)
		}
	} else {
		t = &Thread{}
		t.start()
	}
	t.ex = ex
	t.id = len(ex.threads)
	t.body = body
	ex.liveCount++
	ex.unprimed++
	if t.id&63 == 0 {
		// A word more for the enabled set and its snapshot.
		ex.enabledSet = append(ex.enabledSet, 0)
		ex.decisionSet = append(ex.decisionSet, 0)
	}
	if parent == nil {
		t.path = "0"
		t.parent = -1
		t.pathHash = rootPathHash
		t.memoP, t.memoI = -1, 0
		t.clock = fnvMix(0, rootPathHash)
	} else {
		idx := parent.spawned
		t.memoP, t.memoI = int32(parent.id), int32(idx)
		for len(ex.spawnMemo) <= parent.id {
			ex.spawnMemo = append(ex.spawnMemo, nil)
		}
		row := ex.spawnMemo[parent.id]
		if idx < len(row) && row[idx].parentPath == parent.path {
			t.path = row[idx].path
			t.pathHash = row[idx].hash
		} else {
			buf := append(ex.nameBuf[:0], parent.path...)
			buf = append(buf, '.')
			ex.nameBuf = strconv.AppendInt(buf, int64(idx), 10)
			t.path = ex.intern()
			t.pathHash = fnv1a(fnvOffset, t.path)
			for len(row) <= idx {
				row = append(row, spawnPath{})
			}
			row[idx] = spawnPath{parentPath: parent.path, path: t.path, hash: t.pathHash}
			ex.spawnMemo[parent.id] = row
		}
		parent.spawned++
		t.parent = parent.id
		// Spawn edge of the class fingerprint: the child's clock chains
		// from the parent's clock at spawn time, which is a class
		// invariant (the parent's event prefix up to the spawn is fixed by
		// program order and its hash by the dependence structure).
		t.clock = fnvMix(parent.clock, t.pathHash)
	}
	ex.threads = append(ex.threads, t)
	return t
}

// rootPathHash is fnv1a(fnvOffset, "0"), the root thread's path hash.
var rootPathHash = fnv1a(fnvOffset, "0")

func (ex *Execution) addObj(o objState, name, autoPrefix string) ObjID {
	if p := ex.primingT; p != nil {
		// A prologue that creates an object pins its thread to real priming:
		// deferring it would shift object-creation order and with it the
		// object IDs every later name and trace depends on.
		p.primePoison = true
	}
	if name == "" {
		buf := append(ex.nameBuf[:0], autoPrefix...)
		buf = append(buf, '#')
		ex.nameBuf = strconv.AppendInt(buf, int64(len(ex.objs)), 10)
		name = ex.intern()
	}
	if n := ex.objSeen[name]; n > 0 {
		ex.objSeen[name] = n + 1
		buf := append(ex.nameBuf[:0], name...)
		buf = append(buf, '~')
		ex.nameBuf = strconv.AppendInt(buf, int64(n), 10)
		name = ex.intern()
	} else {
		ex.objSeen[name] = 1
	}
	o.name = name
	o.hash = fnv1a(fnvOffset, name)
	if n := len(ex.objs); n < cap(ex.objs) {
		// Recycle the stale element's waiter buffer, gate and Ref cell (the
		// previous schedule of a pooled Execution created the same objects
		// in the same order; NewRef checks the cell's type before using it).
		stale := &ex.objs[: n+1 : n+1][n]
		o.waiters, o.gate, o.ref = stale.waiters[:0], stale.gate[:0], stale.ref
	}
	ex.objs = append(ex.objs, o)
	return ObjID(len(ex.objs))
}

func (ex *Execution) obj(id ObjID) *objState { return &ex.objs[id-1] }
