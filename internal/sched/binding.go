package sched

// Current-thread binding: a goroutine → *Thread registry that lets a
// zero-argument frontend (surw/surwsync) resolve "the virtual thread this
// code is running on" without plumbing a *Thread through every call.
//
// Every virtual thread's body runs on a dedicated coroutine goroutine (see
// Thread.workerSeq), so the goroutine's key (gkey: its g pointer, O(1) and
// allocation-free) is a faithful name for the duration of one schedule's
// body. The shim binds at body start and unbinds at body end (both inside
// the body wrapper, so kills and pool closure — which unwind the body via
// panic — still run the deferred unbind); the runtime only recycles a g
// after its goroutine exits, so a key never outlives its binding.
//
// Cost discipline: nothing in the scheduling engine touches the registry.
// Binding is opt-in per thread (only shimmed programs call BindGoroutine),
// and CurrentThread's fast path for a process with no bindings at all — the
// production fallback of a shimmed package — is a single atomic load. A
// bound lookup takes no lock: it reads a direct-mapped front of the shard
// maps (see frontOf), and only a goroutine whose front slot another binding
// took falls through to its shard.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// bindShards keeps goroutine→thread lookups uncontended when parallel
// sessions bind concurrently. 64 shards ≫ typical worker counts.
const bindShards = 64

// frontBits sizes the lock-free front: 1024 slots against the few bound
// goroutines of the schedules in flight (a thread per running program
// thread, a handful per worker) keeps two live bindings rarely in one slot.
const frontBits = 10

type bindShard struct {
	mu sync.Mutex
	m  map[uintptr]*Thread
}

var bindReg struct {
	// active counts live bindings; zero lets CurrentThread skip the
	// lookup entirely.
	active atomic.Int64
	shards [bindShards]bindShard
	// front caches the thread last bound in each slot. The shard maps stay
	// the source of truth: a slot is only a hint, believed when the thread
	// in it carries the caller's key (Thread.bindKey), which only the
	// goroutine with that key sets or clears.
	front [1 << frontBits]atomic.Pointer[Thread]
}

// fibHash spreads a goroutine key over 64 bits: g pointers are size-class
// aligned (low bits all zero), so the shard and front indexes are top bits
// of the product, which every bit of k reaches.
func fibHash(k uintptr) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

func shardOf(k uintptr) *bindShard { return &bindReg.shards[fibHash(k)>>58] }

func frontOf(k uintptr) *atomic.Pointer[Thread] { return &bindReg.front[fibHash(k)>>(64-frontBits)] }

// BindGoroutine registers t as the virtual thread of the calling goroutine.
// It must be called on the goroutine that runs t's body (the frontend calls
// it first thing in the body wrapper) and paired with UnbindGoroutine when
// the body returns or unwinds. Re-binding to the same thread is a no-op;
// finding the goroutine bound to a different thread panics: a leaked entry
// is the one way a recycled key could answer for a stranger.
func BindGoroutine(t *Thread) {
	k := gkey()
	sh := shardOf(k)
	sh.mu.Lock()
	old := sh.m[k]
	if old == nil {
		if sh.m == nil {
			sh.m = make(map[uintptr]*Thread, 4)
		}
		sh.m[k] = t
		bindReg.active.Add(1)
	}
	sh.mu.Unlock()
	if old != nil && old != t {
		panic(fmt.Sprintf("sched: BindGoroutine(T%d): goroutine is still bound to T%d", t.id, old.id))
	}
	t.bindKey.Store(k)
	frontOf(k).Store(t)
}

// UnbindGoroutine removes the calling goroutine's binding. Unbinding a
// goroutine that was never bound is a no-op.
func UnbindGoroutine() {
	k := gkey()
	sh := shardOf(k)
	sh.mu.Lock()
	t, ok := sh.m[k]
	if ok {
		delete(sh.m, k)
		bindReg.active.Add(-1)
	}
	sh.mu.Unlock()
	if ok {
		// A thread bound from two goroutines keeps the later key; the
		// earlier one's unbind leaves it alone.
		t.bindKey.CompareAndSwap(k, 0)
		frontOf(k).CompareAndSwap(t, nil)
	}
}

// CurrentThread resolves the virtual thread bound to the calling goroutine.
// ok is false when the goroutine is not running under a controlled session,
// which is the signal for a shim primitive to delegate to the real
// implementation. When no binding exists anywhere in the process — shimmed
// code running in production — the cost is one atomic load.
func CurrentThread() (*Thread, bool) {
	if bindReg.active.Load() == 0 {
		return nil, false
	}
	k := gkey()
	// A front hit is exact: only the goroutine with key k stores k into a
	// thread's bindKey (at its bind) and clears it (at its unbind), so a
	// thread carrying k is bound to the caller, which is that goroutine.
	if t := frontOf(k).Load(); t != nil && t.bindKey.Load() == k {
		return t, true
	}
	sh := shardOf(k)
	sh.mu.Lock()
	t := sh.m[k]
	sh.mu.Unlock()
	return t, t != nil
}

// GoBound is t.Go for a zero-argument frontend: the child runs fn with its
// goroutine bound to it. fn rides on the child's Thread, so a spawn needs
// no wrapper closure.
func GoBound(t *Thread, fn func()) *Handle {
	h := t.Go(runBound)
	t.ex.threads[h.tid].boundFn = fn
	return h
}

func runBound(t *Thread) {
	BindGoroutine(t)
	defer UnbindGoroutine()
	t.boundFn()
}

// Bindings returns the number of live goroutine bindings. It exists for
// leak checks: after a session (or a closed pool) no binding may survive.
func Bindings() int { return int(bindReg.active.Load()) }

// ShimCache scopes a lazily created scheduler object of type O to one
// schedule of one Execution. A zero-argument frontend primitive
// (surwsync.Mutex and friends) owns one ShimCache: the first operation of a
// schedule creates the backing scheduler object and caches it; later
// operations in the same schedule hit the cache; the next schedule (the
// Execution's reset bumps its generation) misses and rebuilds.
//
// Slots are keyed by *Execution, not by (execution, generation): each
// execution has exactly one live generation at a time, so a stale entry is
// overwritten in place. A primitive is touched by one execution unless it
// is package-level and sessions run in parallel, so the first execution's
// slot lives inline — four words in all, no allocation per primitive — and
// later ones spill to a table behind one pointer, installed by the first
// foreign touch and scanned linearly, one slot per execution that ever
// touched the primitive (bounded by the worker count of a parallel runner).
//
// A slot is only used through its execution's current thread, whose
// goroutine never runs concurrently with that execution's reset or with
// its other threads (the coroutine handoff orders them), so a slot's
// generation and object need no lock of their own. The inline slot's owner
// is claimed once, atomically, and its threads take no lock at all; the
// spill table's mutex only guards the spilled slots, the path of a second
// and later execution.
//
// The zero ShimCache is ready to use.
type ShimCache[O any] struct {
	owner atomic.Pointer[Execution] // the inline slot's execution, claimed by its first touch
	gen   uint64                    // 0 until first built: a running execution's gen is ≥ 1
	obj   *O
	spill atomic.Pointer[shimSpill[O]] // nil until a second execution touches the cache
}

// shimSpill holds the slots of every execution but the inline slot's.
type shimSpill[O any] struct {
	mu   sync.Mutex
	more []shimEntry[O]
}

type shimEntry[O any] struct {
	ex  *Execution
	gen uint64
	obj *O
}

// spilled returns ex's spilled slot, claiming one on first touch. s.mu
// held; the pointer is valid until it is released.
func (s *shimSpill[O]) spilled(ex *Execution) *shimEntry[O] {
	for i := range s.more {
		if s.more[i].ex == ex {
			return &s.more[i]
		}
	}
	s.more = append(s.more, shimEntry[O]{ex: ex})
	return &s.more[len(s.more)-1]
}

// Resolve returns the object cached for t's current schedule, calling
// build to create it on the first operation of the schedule. build must
// not block or emit events (object creation is not an event, so the
// standard constructors qualify). It runs outside every lock — a
// panicking build cannot wedge the cache, and nothing else fills the slot
// meanwhile because only ex's current thread uses it.
func (c *ShimCache[O]) Resolve(t *Thread, build func(*Thread) *O) *O {
	ex := t.ex
	if o := c.owner.Load(); o == ex || o == nil && c.owner.CompareAndSwap(nil, ex) {
		if c.gen != ex.gen {
			c.gen, c.obj = ex.gen, build(t)
		}
		return c.obj
	}
	// The first foreign execution installs the spill table; a racing one
	// uses the table that won.
	s := c.spill.Load()
	if s == nil {
		s = new(shimSpill[O])
		if !c.spill.CompareAndSwap(nil, s) {
			s = c.spill.Load()
		}
	}
	s.mu.Lock()
	e := s.spilled(ex)
	gen, obj := e.gen, e.obj
	s.mu.Unlock()
	if gen == ex.gen {
		return obj
	}
	obj = build(t)
	s.mu.Lock()
	e = s.spilled(ex)
	e.gen, e.obj = ex.gen, obj
	s.mu.Unlock()
	return obj
}
