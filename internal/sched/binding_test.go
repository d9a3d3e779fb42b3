package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The registry is the foundation the surwsync frontend stands on: a bound
// goroutine resolves its virtual thread, an unbound one resolves nothing,
// and bindings never leak past a body. Exercised here in-package so the
// substrate's own coverage pins it, independent of surwsync's tests.
func TestBindingRegistry(t *testing.T) {
	if _, ok := CurrentThread(); ok {
		t.Fatal("unbound goroutine resolved a thread")
	}
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d before any bind", Bindings())
	}

	var resolved *Thread
	var childResolved bool
	res := Run(func(rt *Thread) {
		BindGoroutine(rt)
		defer UnbindGoroutine()
		got, ok := CurrentThread()
		if !ok || got != rt {
			panic("root binding did not resolve")
		}
		resolved = got

		h := rt.Go(func(w *Thread) {
			// The child's coroutine is a different goroutine: without its
			// own binding it must not inherit the root's.
			if _, ok := CurrentThread(); ok {
				panic("child inherited a binding it never made")
			}
			BindGoroutine(w)
			defer UnbindGoroutine()
			cw, ok := CurrentThread()
			childResolved = ok && cw == w
		})
		rt.Join(h)
	}, nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
	if resolved == nil || !childResolved {
		t.Fatal("binding resolution failed inside the session")
	}
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d after session; bindings leaked", Bindings())
	}

	// Double-bind of the same goroutine must not inflate the counter, and a
	// stray unbind must stay a no-op.
	UnbindGoroutine()
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d after no-op unbind", Bindings())
	}
}

// gkey must agree with itself on one goroutine and differ across live
// goroutines — the two properties the registry relies on, whichever body
// (g pointer or runtime.Stack parse) this GOARCH builds.
func TestGkeyStableAndDistinct(t *testing.T) {
	a, b := gkey(), gkey()
	if a != b || a == 0 {
		t.Fatalf("gkey unstable on one goroutine: %#x vs %#x", a, b)
	}
	var other uintptr
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); other = gkey() }()
	wg.Wait()
	if other == a || other == 0 {
		t.Fatalf("distinct live goroutines share gkey %#x", a)
	}
}

// g pointers are size-class aligned: indexing shards by their low bits
// would put every goroutine in shard 0. The mixed index must still shard.
func TestBindShardsSpread(t *testing.T) {
	const n = 1000
	keys := make([]uintptr, n)
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(1)
	for i := range keys {
		go func() {
			keys[i] = gkey()
			ready.Done()
			done.Wait() // stay alive: only live goroutines have distinct keys
		}()
	}
	ready.Wait()
	used := map[*bindShard]bool{}
	for _, k := range keys {
		used[shardOf(k)] = true
	}
	done.Done()
	if len(used) < 48 {
		t.Fatalf("%d live goroutines hit only %d of %d shards", n, len(used), bindShards)
	}
}

// Re-binding a goroutine to the thread it is already bound to is counted
// once; binding it to a different thread while the first binding is live
// is a leaked entry and panics naming both threads.
func TestBindGoroutineRebind(t *testing.T) {
	a, b := &Thread{id: 3}, &Thread{id: 7}
	BindGoroutine(a)
	defer UnbindGoroutine()
	BindGoroutine(a)
	if Bindings() != 1 {
		t.Fatalf("Bindings() = %d after re-binding the same thread, want 1", Bindings())
	}
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "T7") || !strings.Contains(msg, "T3") {
				t.Errorf("bind over a different thread: panic %q, want both thread ids", msg)
			}
		}()
		BindGoroutine(b)
	}()
	if got, ok := CurrentThread(); !ok || got != a || Bindings() != 1 {
		t.Fatalf("refused bind disturbed the registry: %v %v, %d bindings", got, ok, Bindings())
	}
}

// The lock-free front is a hint over the shard maps: with more live
// bindings than front slots, goroutines share slots, and each must still
// resolve its own thread — by the front or through its shard — while its
// neighbours bind and unbind around it.
func TestBindFrontCollisions(t *testing.T) {
	const n = 3 << frontBits
	var bound, unbound, done sync.WaitGroup
	bound.Add(n)
	unbound.Add(n / 2)
	done.Add(1)
	var wrong atomic.Int64
	check := func(th *Thread) {
		if got, ok := CurrentThread(); !ok || got != th {
			wrong.Add(1)
		}
	}
	var finished sync.WaitGroup
	finished.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer finished.Done()
			th := &Thread{id: i}
			BindGoroutine(th)
			check(th)
			bound.Done()
			bound.Wait()
			check(th)
			if i%2 == 0 { // half leave, clearing only the slots they still hold
				UnbindGoroutine()
				if _, ok := CurrentThread(); ok {
					wrong.Add(1)
				}
				unbound.Done()
				return
			}
			unbound.Wait()
			check(th)
			done.Wait()
			UnbindGoroutine()
		}()
	}
	unbound.Wait()
	if Bindings() != n/2 {
		t.Errorf("Bindings() = %d with half of %d unbound", Bindings(), n)
	}
	done.Done()
	finished.Wait()
	if wrong.Load() != 0 || Bindings() != 0 {
		t.Fatalf("%d lookups resolved the wrong thread; %d bindings left", wrong.Load(), Bindings())
	}
}

// One thread bound from two goroutines at once (only a frontend bug does
// that, but nothing forbids it): each resolves the thread until it unbinds,
// whichever of them the thread's key names.
func TestThreadBoundFromTwoGoroutines(t *testing.T) {
	th := &Thread{id: 5}
	BindGoroutine(th)
	var bound, unbound, other sync.WaitGroup
	bound.Add(1)
	unbound.Add(1)
	other.Add(1)
	var otherOK [2]bool
	go func() {
		defer other.Done()
		BindGoroutine(th) // the thread's key is now this goroutine's
		bound.Done()
		unbound.Wait()
		got, ok := CurrentThread()
		otherOK[0] = ok && got == th
		UnbindGoroutine()
		_, ok = CurrentThread()
		otherOK[1] = !ok
	}()
	bound.Wait()
	got, ok := CurrentThread()
	UnbindGoroutine() // leaves the other goroutine's key on the thread
	unbound.Done()
	other.Wait()
	if !ok || got != th || !otherOK[0] || !otherOK[1] || Bindings() != 0 {
		t.Fatalf("first goroutine resolved %v (%v); second %v; %d bindings left", got, ok, otherOK, Bindings())
	}
}

// bound wraps a body the way the surwsync frontend does.
func bound(body func(*Thread)) func(*Thread) {
	return func(t *Thread) {
		BindGoroutine(t)
		defer UnbindGoroutine()
		body(t)
	}
}

// panicAfter is pickLeft until its n-th decision, which panics — an engine
// failure that aborts Pool.Run with threads still parked mid-schedule.
type panicAfter struct {
	pickLeft
	n int
}

func (p *panicAfter) Next(st *State) ThreadID {
	if p.n--; p.n < 0 {
		panic("algorithm bug")
	}
	return p.pickLeft.Next(st)
}

// The runtime recycles g structs, so a key can name a new goroutine once
// its first owner exits. Every way a bound body can end — return, kill
// while parked, pool closed mid-schedule — must have removed its entry by
// then, or a stranger would resolve a dead schedule's thread.
func TestRecycledGoroutinesSeeNoBinding(t *testing.T) {
	parker := bound(func(rt *Thread) {
		ch := NewChan[int](rt, "ch", 0)
		rt.Go(bound(func(w *Thread) { ch.Recv(w) })) // parks forever
	})
	if res := Run(parker, nil, Options{}); res.Failure == nil || res.Failure.Kind != FailDeadlock {
		t.Fatalf("expected deadlock, got %+v", res.Failure)
	}

	p := NewPool()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("algorithm panic did not abort the pooled run")
			}
		}()
		p.Run(bound(func(rt *Thread) {
			v := rt.NewVar("v", 0)
			for i := 0; i < 2; i++ {
				rt.Go(bound(func(w *Thread) { v.Add(w, 1); v.Add(w, 1) }))
			}
			v.Add(rt, 1)
		}), &panicAfter{n: 2}, Options{})
	}()
	if Bindings() == 0 {
		t.Fatal("aborted schedule left no parked bound thread: the test no longer closes a pool mid-schedule")
	}
	p.Close()
	if n := Bindings(); n != 0 {
		t.Fatalf("%d bindings survived kill-unwind and Pool.Close", n)
	}

	// Hold one binding so CurrentThread really looks strangers up instead
	// of taking the zero-bindings early return.
	BindGoroutine(&Thread{})
	defer UnbindGoroutine()
	var saw atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10000; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := CurrentThread(); ok {
				saw.Add(1)
			}
		}()
	}
	wg.Wait()
	if saw.Load() != 0 || Bindings() != 1 {
		t.Fatalf("%d recycled goroutines resolved a stale binding (%d bindings)", saw.Load(), Bindings())
	}
}

// The per-operation shim path — resolve the bound thread, hit the warm
// cache — must not allocate beyond what naming the goroutine costs: nothing
// where gkey is the assembly stub (ci.sh gates that 0 on the native build),
// runtime.Stack's buffer on the fallback.
func TestBoundLookupsDoNotAllocate(t *testing.T) {
	var cache ShimCache[Mutex]
	var lookup, resolve float64
	naming := testing.AllocsPerRun(100, func() { gkey() })
	res := Run(bound(func(rt *Thread) {
		mk := func(w *Thread) *Mutex { return w.NewMutex("shim.mu") }
		cache.Resolve(rt, mk)
		lookup = testing.AllocsPerRun(100, func() {
			if got, ok := CurrentThread(); !ok || got != rt {
				panic("bound lookup missed")
			}
		})
		resolve = testing.AllocsPerRun(100, func() { cache.Resolve(rt, mk) })
	}), nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
	if lookup != naming || resolve != 0 {
		t.Fatalf("allocs per op: CurrentThread %v, warm ShimCache.Resolve %v, want %v and 0", lookup, resolve, naming)
	}
}

// ShimCache must hand back the same object within one schedule and build a
// fresh one each schedule — the fresh-state-per-schedule contract zero-value
// frontend primitives depend on. Fresh is a statement about the object, not
// the handle: handles are recycled (Execution.objHandles), so the same
// pointer may name schedule k's mutex and schedule k+1's.
func TestShimCacheGenerationScoped(t *testing.T) {
	var cache ShimCache[Mutex]
	built := 0
	mk := func(w *Thread) *Mutex { built++; return w.NewMutex("shim.mu") }
	prog := func(rt *Thread) {
		m := cache.Resolve(rt, mk)
		if cache.Resolve(rt, mk) != m {
			rt.Fail("cache missed within a schedule")
		}
		if m.HeldBy() != -1 {
			rt.Fail("the previous schedule's lock is still held")
		}
		m.Lock(rt) // left locked on purpose: the next schedule's object must be free
	}

	p := NewPool()
	defer p.Close()
	for s := int64(1); s <= 3; s++ {
		r := p.Run(prog, nil, Options{Base: Base{Seed: s}})
		if r.Failure != nil {
			t.Fatalf("schedule %d failed: %+v", s, r.Failure)
		}
	}
	if built != 3 {
		t.Fatalf("ShimCache built %d objects over 3 schedules, want one per schedule", built)
	}
}

// A package-level primitive shared by parallel sessions is touched by
// several executions: the first owns the inline slot, the rest spill, and
// each keeps its own per-schedule object.
func TestShimCacheSlotPerExecution(t *testing.T) {
	var cache ShimCache[Mutex]
	built := 0
	mk := func(w *Thread) *Mutex { built++; return w.NewMutex("shim.mu") }
	pools := [3]*Pool{NewPool(), NewPool(), NewPool()}
	for s := 0; s < 2; s++ {
		var objs [3]*Mutex // per execution, this round
		for i, p := range pools {
			r := p.Run(func(rt *Thread) {
				m := cache.Resolve(rt, mk)
				if cache.Resolve(rt, mk) != m {
					rt.Fail("cache missed within a schedule")
				}
				if m.HeldBy() != -1 {
					rt.Fail("a lock taken in another slot or schedule is still held")
				}
				m.Lock(rt) // left locked: must not leak into any other slot
				objs[i] = m
			}, nil, Options{})
			if r.Failure != nil {
				t.Fatalf("execution %d schedule %d: %+v", i, s, r.Failure)
			}
		}
		if objs[0] == objs[1] || objs[1] == objs[2] || objs[0] == objs[2] {
			t.Fatalf("round %d: executions share an object", s)
		}
	}
	if built != 6 || len(cache.spill.Load().more) != 2 {
		t.Fatalf("%d objects built over 3 executions x 2 schedules (want 6), %d spilled slots (want 2)", built, len(cache.spill.Load().more))
	}
	for _, p := range pools {
		p.Close()
	}
}

// The same with the executions running at once, as parallel sessions do
// (run under -race by ci.sh): one claims the inline slot without a lock,
// the others race to install the spill table and to spill into it, and
// every schedule of every execution still sees its own fresh object.
func TestShimCacheConcurrentExecutions(t *testing.T) {
	var cache ShimCache[Mutex]
	mk := func(w *Thread) *Mutex { return w.NewMutex("shim.mu") }
	prog := func(rt *Thread) {
		v := rt.NewVar("v", 0)
		body := func(w *Thread) {
			m := cache.Resolve(w, mk)
			m.Lock(w)
			v.Add(w, 1)
			m.Unlock(w)
		}
		h := rt.Go(body)
		body(rt)
		rt.Join(h)
		if cache.Resolve(rt, mk).HeldBy() != -1 || v.Peek() != 2 {
			rt.Fail("shared cache mixed two executions' objects")
		}
		cache.Resolve(rt, mk).Lock(rt) // left locked: the next schedule's must be free
	}
	const executions = 4
	var wg sync.WaitGroup
	failures := make([]*Failure, executions)
	for i := range failures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPool()
			defer p.Close()
			for s := int64(0); s < 50 && failures[i] == nil; s++ {
				failures[i] = p.Run(prog, &pickRandom{}, Options{Base: Base{Seed: s}}).Failure
			}
		}()
	}
	wg.Wait()
	for i, f := range failures {
		if f != nil {
			t.Errorf("execution %d: %+v", i, f)
		}
	}
	if len(cache.spill.Load().more) != executions-1 {
		t.Fatalf("%d spilled slots, want %d", len(cache.spill.Load().more), executions-1)
	}
}

// The non-blocking operations added for the frontend's select-with-default
// and zero-value surfaces: TrySend on buffered/unbuffered/full channels,
// RWMutex Try variants against holders, WaitGroup.Count.
func TestNonBlockingShimOps(t *testing.T) {
	res := Run(func(rt *Thread) {
		buf := NewChan[int](rt, "buf", 1)
		if !buf.TrySend(rt, 7) {
			rt.Fail("TrySend on empty buffered channel refused")
		}
		if buf.TrySend(rt, 8) {
			rt.Fail("TrySend on full channel accepted")
		}
		if v, ok := buf.TryRecv(rt); !ok || v != 7 {
			rt.Fail("TryRecv missed the buffered value")
		}
		unbuf := NewChan[int](rt, "unbuf", 0)
		if unbuf.TrySend(rt, 1) {
			rt.Fail("unbuffered TrySend succeeded with no receiver")
		}

		rw := rt.NewRWMutex("rw")
		if rw.ID() == 0 || rw.Name() != "rw" {
			rt.Fail("RWMutex identity accessors broken")
		}
		if !rw.TryLock(rt) {
			rt.Fail("TryLock on free lock refused")
		}
		h := rt.Go(func(w *Thread) {
			if rw.TryLock(w) || rw.TryRLock(w) {
				w.Fail("Try acquired a write-held lock")
			}
		})
		rt.Join(h)
		rw.Unlock(rt)
		if !rw.TryRLock(rt) {
			rt.Fail("TryRLock on free lock refused")
		}
		if rw.TryLock(rt) {
			rt.Fail("TryLock succeeded under an active reader")
		}
		if !rw.TryRLock(rt) {
			rt.Fail("second concurrent TryRLock refused")
		}
		rw.RUnlock(rt)
		rw.RUnlock(rt)

		wg := rt.NewWaitGroup("wg")
		wg.Add(rt, 2)
		if wg.Count(rt) != 2 {
			rt.Fail("WaitGroup.Count wrong after Add")
		}
		wg.Done(rt)
		wg.Done(rt)
		if wg.Count(rt) != 0 {
			rt.Fail("WaitGroup.Count wrong after Done")
		}
	}, nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
}

// BenchmarkCurrentThread prices the lookup every shim operation starts
// with: unbound is the production fallback (no binding anywhere, one
// atomic load), bound is a registry hit.
func BenchmarkCurrentThread(b *testing.B) {
	b.Run("unbound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := CurrentThread(); ok {
				b.Fatal("unbound goroutine resolved a thread")
			}
		}
	})
	b.Run("bound", func(b *testing.B) {
		b.ReportAllocs()
		th := &Thread{}
		BindGoroutine(th)
		defer UnbindGoroutine()
		for i := 0; i < b.N; i++ {
			if got, ok := CurrentThread(); !ok || got != th {
				b.Fatal("bound lookup missed")
			}
		}
	})
}
