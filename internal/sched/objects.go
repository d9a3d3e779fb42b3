package sched

import "fmt"

// handle is what every primitive's handle is underneath: the immutable
// name of one object of one execution. Handles are carved from the
// execution's arena (Execution.newHandle), so creating an object allocates
// nothing once a pool is warm; like a spawn Handle, one is only meaningful
// within the schedule that created it.
type handle struct {
	id ObjID
	ex *Execution
}

// newHandle creates an object (see addObj) and carves its handle.
func (ex *Execution) newHandle(o objState, name, autoPrefix string) *handle {
	return carve(&ex.objHandles, handle{id: ex.addObj(o, name, autoPrefix), ex: ex})
}

// Var is a shared int64 variable. Every access is an atomic event.
type Var handle

// NewVar creates a shared variable. name identifies the variable across
// schedules ("" auto-names it from creation order); init is its initial
// value. Creating an object is not itself an event.
func (t *Thread) NewVar(name string, init int64) *Var {
	return (*Var)(t.ex.newHandle(objState{kind: ObjVar, val: init}, name, "var"))
}

// ID returns the variable's object ID.
func (v *Var) ID() ObjID { return v.id }

// Name returns the variable's stable name.
func (v *Var) Name() string { return v.ex.obj(v.id).name }

// Load reads the variable (an OpRead event).
func (v *Var) Load(t *Thread) int64 {
	t.sync(OpRead, v.id)
	return v.ex.obj(v.id).val
}

// Store writes the variable (an OpWrite event).
func (v *Var) Store(t *Thread, x int64) {
	t.sync(OpWrite, v.id)
	v.ex.obj(v.id).val = x
}

// Add atomically adds d and returns the new value (an OpRMW event).
func (v *Var) Add(t *Thread, d int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	o.val += d
	return o.val
}

// Swap atomically replaces the value and returns the old one (OpRMW).
func (v *Var) Swap(t *Thread, x int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	old := o.val
	o.val = x
	return old
}

// CAS atomically compares-and-swaps (an OpRMW event).
func (v *Var) CAS(t *Thread, old, new int64) bool {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	if o.val != old {
		return false
	}
	o.val = new
	return true
}

// Update applies f to the value atomically (an OpRMW event) and returns the
// new value.
func (v *Var) Update(t *Thread, f func(int64) int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	o.val = f(o.val)
	return o.val
}

// Peek returns the current value without an event. It is for use after the
// program has quiesced (e.g. computing a behaviour fingerprint in the root
// thread after joining everyone); using it to smuggle unscheduled
// communication between threads defeats the tool.
func (v *Var) Peek() int64 { return v.ex.obj(v.id).val }

// Ref is a shared variable holding an arbitrary value of type E. Accesses
// are events exactly like Var's; mutate only through Get/Set/Update so every
// access is scheduled.
type Ref[E any] handle

// NewRef creates a shared reference cell named name holding init. The value
// lives in a *E the object slot keeps across schedules (addObj hands the
// previous schedule's cell on), so after warm-up neither creating the cell
// nor writing it allocates; a slot last used by a Ref of another type, or
// by none, gets a new cell.
func NewRef[E any](t *Thread, name string, init E) *Ref[E] {
	r, cell := newRefCell[E](t, name)
	*cell = init
	return r
}

// newRefCell creates a Ref and returns its cell as the slot's previous
// Ref[E] left it (zero when new), for a caller to set the initial value
// from: NewChan keeps the buffer's capacity across schedules that way.
func newRefCell[E any](t *Thread, name string) (*Ref[E], *E) {
	h := t.ex.newHandle(objState{kind: ObjVar}, name, "ref")
	o := t.ex.obj(h.id)
	cell, ok := o.ref.(*E)
	if !ok {
		cell = new(E)
		o.ref = cell
	}
	return (*Ref[E])(h), cell
}

func (r *Ref[E]) cell() *E { return r.ex.obj(r.id).ref.(*E) }

// ID returns the reference's object ID.
func (r *Ref[E]) ID() ObjID { return r.id }

// Name returns the reference's stable name.
func (r *Ref[E]) Name() string { return r.ex.obj(r.id).name }

// Get reads the cell (OpRead).
func (r *Ref[E]) Get(t *Thread) E {
	t.sync(OpRead, r.id)
	return *r.cell()
}

// Set writes the cell (OpWrite).
func (r *Ref[E]) Set(t *Thread, x E) {
	t.sync(OpWrite, r.id)
	*r.cell() = x
}

// Update applies f to the cell atomically (OpRMW) and returns the new value.
func (r *Ref[E]) Update(t *Thread, f func(E) E) E {
	t.sync(OpRMW, r.id)
	c := r.cell()
	*c = f(*c)
	return *c
}

// Peek returns the current value without an event (see Var.Peek).
func (r *Ref[E]) Peek() E { return *r.cell() }

// Mutex is a non-reentrant mutual-exclusion lock.
type Mutex handle

// NewMutex creates a mutex.
func (t *Thread) NewMutex(name string) *Mutex {
	return (*Mutex)(t.ex.newHandle(objState{kind: ObjMutex, owner: -1}, name, "mutex"))
}

// ID returns the mutex's object ID.
func (m *Mutex) ID() ObjID { return m.id }

// Name returns the mutex's stable name.
func (m *Mutex) Name() string { return m.ex.obj(m.id).name }

// Lock acquires the mutex (an OpLock event, enabled only while free).
func (m *Mutex) Lock(t *Thread) {
	t.sync(OpLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		panic(fmt.Sprintf("sched: lock %s granted while held by T%d", o.name, o.owner))
	}
	o.owner = t.id
	t.heldMutex = append(t.heldMutex, m.id)
}

// Unlock releases the mutex (an OpUnlock event). Unlocking a mutex the
// thread does not hold is a program error and fails the schedule.
func (m *Mutex) Unlock(t *Thread) {
	t.sync(OpUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != t.id {
		panic(fmt.Sprintf("unlock of %s not held by T%d", o.name, t.id))
	}
	o.owner = -1
	for i := len(t.heldMutex) - 1; i >= 0; i-- {
		if t.heldMutex[i] == m.id {
			t.heldMutex = append(t.heldMutex[:i], t.heldMutex[i+1:]...)
			break
		}
	}
}

// TryLock acquires the mutex if free (an OpRMW-style event that never
// blocks) and reports success.
func (m *Mutex) TryLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		return false
	}
	o.owner = t.id
	t.heldMutex = append(t.heldMutex, m.id)
	return true
}

// HeldBy reports the current owner without an event (-1 if free).
func (m *Mutex) HeldBy() ThreadID { return m.ex.obj(m.id).owner }

// RWMutex is a readers-writer lock: any number of concurrent readers, or
// one writer.
type RWMutex handle

// NewRWMutex creates a readers-writer lock.
func (t *Thread) NewRWMutex(name string) *RWMutex {
	return (*RWMutex)(t.ex.newHandle(objState{kind: ObjMutex, owner: -1}, name, "rwmutex"))
}

// ID returns the lock's object ID.
func (m *RWMutex) ID() ObjID { return m.id }

// Name returns the lock's stable name.
func (m *RWMutex) Name() string { return m.ex.obj(m.id).name }

// Lock acquires the write lock (an OpLock event, enabled only while no
// writer owns it and no readers are active).
func (m *RWMutex) Lock(t *Thread) {
	t.sync(OpLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 || o.readers != 0 {
		panic(fmt.Sprintf("sched: write lock %s granted while busy", o.name))
	}
	o.owner = t.id
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock(t *Thread) {
	t.sync(OpUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != t.id {
		panic(fmt.Sprintf("unlock of %s not write-held by T%d", o.name, t.id))
	}
	o.owner = -1
}

// RLock acquires a read lock (an OpRLock event, enabled while no writer
// owns the lock).
func (m *RWMutex) RLock(t *Thread) {
	t.sync(OpRLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		panic(fmt.Sprintf("sched: read lock %s granted while write-held", o.name))
	}
	o.readers++
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock(t *Thread) {
	t.sync(OpRUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.readers <= 0 {
		panic(fmt.Sprintf("runlock of %s with no active readers", o.name))
	}
	o.readers--
}

// TryLock acquires the write lock if free (an OpRMW-style event that never
// blocks) and reports success.
func (m *RWMutex) TryLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 || o.readers != 0 {
		return false
	}
	o.owner = t.id
	return true
}

// TryRLock acquires a read lock if no writer holds the lock (an OpRMW-style
// event that never blocks) and reports success.
func (m *RWMutex) TryRLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		return false
	}
	o.readers++
	return true
}

// Readers returns the active reader count without an event.
func (m *RWMutex) Readers() int { return m.ex.obj(m.id).readers }

// Cond is a condition variable bound to a Mutex (named by its object's
// condMu). There are no spurious wakeups: a Wait returns only after a Signal
// or Broadcast selected it.
type Cond handle

// NewCond creates a condition variable using mutex m.
func (t *Thread) NewCond(name string, m *Mutex) *Cond {
	return (*Cond)(t.ex.newHandle(objState{kind: ObjCond, condMu: m.id, owner: -1}, name, "cond"))
}

// ID returns the condition variable's object ID.
func (c *Cond) ID() ObjID { return c.id }

// Name returns the condition variable's stable name.
func (c *Cond) Name() string { return c.ex.obj(c.id).name }

// Wait atomically releases the mutex and sleeps until signaled, then
// reacquires the mutex before returning. It is two events: OpWait (release
// and sleep) and OpWakeLock (reacquire, enabled once the mutex is free).
func (c *Cond) Wait(t *Thread) {
	t.sync(OpWait, c.id)
	co := c.ex.obj(c.id)
	mu := co.condMu
	mo := c.ex.obj(mu)
	if mo.owner != t.id {
		panic(fmt.Sprintf("cond wait on %s without holding %s", co.name, mo.name))
	}
	mo.owner = -1
	for i := len(t.heldMutex) - 1; i >= 0; i-- {
		if t.heldMutex[i] == mu {
			t.heldMutex = append(t.heldMutex[:i], t.heldMutex[i+1:]...)
			break
		}
	}
	co.waiters = append(co.waiters, t.id)
	t.state = tsSleeping
	if t.ex.fast {
		t.ex.sleepPoint(t) // decide the next step without a next event
	}
	t.park() // resumed only when the OpWakeLock below is granted
	t.state = tsRunning
	mo = c.ex.obj(mu)
	if mo.owner != -1 {
		panic(fmt.Sprintf("sched: wakelock on %s granted while held", mo.name))
	}
	mo.owner = t.id
	t.heldMutex = append(t.heldMutex, mu)
}

// wake moves a sleeping waiter to the ready state with an OpWakeLock event.
func (c *Cond) wake(tid ThreadID) {
	w := c.ex.threads[tid]
	mu := c.ex.obj(c.id).condMu
	w.seq++
	w.next = Event{TID: w.id, Seq: w.seq, Kind: OpWakeLock, Obj: mu,
		PathHash: w.pathHash, ObjHash: c.ex.obj(mu).hash}
	w.state = tsReady
	if c.ex.fast {
		c.ex.classify(w) // register the pending wakelock in the mutex's waitMask
	}
}

// Signal wakes the longest-sleeping waiter, if any (an OpSignal event).
func (c *Cond) Signal(t *Thread) {
	t.sync(OpSignal, c.id)
	co := c.ex.obj(c.id)
	if len(co.waiters) > 0 {
		c.wake(co.waiters[0])
		// Shift down, not co.waiters[1:]: the buffer is recycled by the
		// next schedule and must keep its capacity.
		co.waiters = co.waiters[:copy(co.waiters, co.waiters[1:])]
	}
}

// Broadcast wakes every waiter (an OpBroadcast event).
func (c *Cond) Broadcast(t *Thread) {
	t.sync(OpBroadcast, c.id)
	co := c.ex.obj(c.id)
	for _, w := range co.waiters {
		c.wake(w)
	}
	co.waiters = co.waiters[:0]
}

// Semaphore is a counting semaphore.
type Semaphore handle

// NewSemaphore creates a semaphore with the given initial count.
func (t *Thread) NewSemaphore(name string, init int) *Semaphore {
	return (*Semaphore)(t.ex.newHandle(objState{kind: ObjSem, sem: init, owner: -1}, name, "sem"))
}

// ID returns the semaphore's object ID.
func (s *Semaphore) ID() ObjID { return s.id }

// Name returns the semaphore's stable name.
func (s *Semaphore) Name() string { return s.ex.obj(s.id).name }

// P decrements the count (an OpSemP event, enabled while count > 0).
func (s *Semaphore) P(t *Thread) {
	t.sync(OpSemP, s.id)
	o := s.ex.obj(s.id)
	if o.sem <= 0 {
		panic("sched: semP granted at zero")
	}
	o.sem--
}

// V increments the count (an OpSemV event).
func (s *Semaphore) V(t *Thread) {
	t.sync(OpSemV, s.id)
	s.ex.obj(s.id).sem++
}

// Count returns the current count without an event.
func (s *Semaphore) Count() int { return s.ex.obj(s.id).sem }
