package surwsync_test

// Differential tests for the surwsync shim: the same shimmed program is
// run under the controlled scheduler and, untouched, on the real sync
// primitives (this package is in ci.sh's -race list, so the fallback path
// is validated under the race detector), and both must compute the same
// result. Plus fallback-delegation, per-schedule freshness, determinism,
// and binding-leak checks.

import (
	"sync"
	"testing"
	"unsafe"

	"surw"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/surwsync"
)

// sumPool is the shared differential workload: an ordinary Go worker pool
// written only against surwsync, summing 1..jobs across workers mutex-
// protected. Correct final total in every interleaving: jobs*(jobs+1)/2.
func sumPool(workers, jobs int) int {
	var mu surwsync.Mutex
	var wg surwsync.WaitGroup
	ch := surwsync.NewChan[int](jobs)
	total := 0
	for i := 0; i < workers; i++ {
		wg.Add(1)
		surwsync.Go(func() {
			defer wg.Done()
			for {
				v, ok := ch.Recv()
				if !ok {
					return
				}
				mu.Lock()
				total += v
				mu.Unlock()
			}
		})
	}
	for j := 1; j <= jobs; j++ {
		ch.Send(j)
	}
	ch.Close()
	wg.Wait()
	return total
}

func TestDifferentialControlledVsReal(t *testing.T) {
	const workers, jobs = 2, 4
	want := jobs * (jobs + 1) / 2

	// Real mode: no session anywhere in this call chain, so every
	// primitive delegates to sync/native channels (raced by ci.sh).
	if got := sumPool(workers, jobs); got != want {
		t.Fatalf("real sync: total = %d, want %d", got, want)
	}

	// Controlled mode: the identical function, across many schedules.
	prog := surwsync.Program(func() {
		if got := sumPool(workers, jobs); got != want {
			panic("controlled: wrong total")
		}
	})
	ex, err := surw.Explore(prog, surw.Options{Schedules: 60, Algorithm: "RW"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Failures) != 0 {
		t.Fatalf("controlled schedules failed: %v", ex.Failures)
	}
	// The shim must actually expose scheduling choice, not serialize the
	// program one way: distinct interleavings must be witnessed.
	if len(ex.Interleavings) < 2 {
		t.Fatalf("shimmed pool explored only %d interleaving(s)", len(ex.Interleavings))
	}
}

func TestControlledDeterministicReplay(t *testing.T) {
	prog := surwsync.Program(func() { sumPool(2, 3) })
	a := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 11}})
	b := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 11}})
	if a.InterleavingHash != b.InterleavingHash {
		t.Fatalf("same seed, different interleavings: %x vs %x", a.InterleavingHash, b.InterleavingHash)
	}
	var log surw.EventLog
	surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 12}, Tracer: &log})
	if len(log.Events) == 0 {
		t.Fatal("shimmed program produced no scheduled events")
	}
}

// TestFallbackDelegation drives each primitive with real goroutines and no
// session: everything must behave like its sync counterpart.
func TestFallbackDelegation(t *testing.T) {
	var mu surwsync.Mutex
	if !mu.TryLock() {
		t.Fatal("TryLock on free fallback mutex failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held fallback mutex succeeded")
	}
	mu.Unlock()

	var rw surwsync.RWMutex
	rw.RLock()
	if rw.TryLock() {
		t.Fatal("write TryLock with active reader succeeded")
	}
	if !rw.TryRLock() {
		t.Fatal("TryRLock with only readers failed")
	}
	rw.RUnlock()
	rw.RUnlock()

	calls := 0
	var once surwsync.Once
	var wg surwsync.WaitGroup
	ch := surwsync.NewChan[int](0)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		surwsync.Go(func() {
			defer wg.Done()
			once.Do(func() { calls++ })
			ch.Send(1)
		})
	}
	got := 0
	for i := 0; i < 3; i++ {
		v, ok := ch.Recv()
		if !ok {
			t.Fatal("unexpected close")
		}
		got += v
	}
	wg.Wait()
	if got != 3 || calls != 1 {
		t.Fatalf("fallback: got = %d (want 3), once calls = %d (want 1)", got, calls)
	}
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on drained fallback channel succeeded")
	}
}

// Fallback TrySend: fails on an unbuffered channel with no receiver,
// succeeds into free buffer space.
func TestFallbackTrySendUnbuffered(t *testing.T) {
	ch := surwsync.NewChan[int](0)
	if ch.TrySend(1) {
		t.Fatal("unbuffered TrySend with no receiver succeeded")
	}
	bch := surwsync.NewChan[int](1)
	if !bch.TrySend(1) || bch.Len() != 1 {
		t.Fatal("buffered TrySend failed")
	}
}

// A Chan made inside a session has no native channel until it is first used
// outside one; when that first use is two goroutines at once (run under
// -race by ci.sh), both must get the one channel that was installed.
func TestChanOutlivesSession(t *testing.T) {
	var ch *surwsync.Chan[int]
	prog := surwsync.Program(func() {
		ch = surwsync.NewChan[int](1)
		ch.Send(1)
		ch.Recv()
	})
	if res := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 1}}); res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	const n = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			ch.Send(i)
		}
		ch.Close()
	}()
	sum := 0
	go func() {
		defer wg.Done()
		for {
			v, ok := ch.Recv()
			if !ok {
				return
			}
			sum += v
		}
	}()
	wg.Wait()
	if want := n * (n + 1) / 2; sum != want || ch.Cap() != 1 || ch.Len() != 0 {
		t.Fatalf("outside the session: received sum %d (want %d), cap %d, len %d", sum, want, ch.Cap(), ch.Len())
	}
}

// TestFreshStatePerSchedule: a primitive shared across schedules is backed
// by a fresh scheduler object each schedule — a mutex left locked at the
// end of one schedule is free at the start of the next.
func TestFreshStatePerSchedule(t *testing.T) {
	var m surwsync.Mutex
	prog := surwsync.Program(func() {
		if !m.TryLock() {
			panic("stale lock state leaked into a new schedule")
		}
		// Deliberately never unlocked.
	})
	for s := int64(1); s <= 3; s++ {
		res := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: s}})
		if res.Buggy() {
			t.Fatalf("schedule with seed %d failed: %v", s, res.Failure)
		}
	}
	// And per-schedule Once: Do fires once per schedule, not once ever.
	calls := 0
	var once surwsync.Once
	oprog := surwsync.Program(func() {
		once.Do(func() { calls++ })
		once.Do(func() { calls += 100 }) // same schedule: must not run
	})
	for s := int64(1); s <= 2; s++ {
		if res := surw.Run(oprog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: s}}); res.Buggy() {
			t.Fatalf("once schedule failed: %v", res.Failure)
		}
	}
	if calls != 2 {
		t.Fatalf("Once.Do calls across 2 schedules = %d, want 2", calls)
	}
}

// TestRWMutexControlled exercises the reader/writer shim under the
// scheduler: concurrent readers are admitted, the writer excludes them.
func TestRWMutexControlled(t *testing.T) {
	prog := surwsync.Program(func() {
		var rw surwsync.RWMutex
		var wg surwsync.WaitGroup
		data, snap := 0, -1
		wg.Add(2)
		surwsync.Go(func() {
			defer wg.Done()
			rw.Lock()
			data = 42
			rw.Unlock()
		})
		surwsync.Go(func() {
			defer wg.Done()
			rw.RLock()
			snap = data
			rw.RUnlock()
		})
		wg.Wait()
		if snap != 0 && snap != 42 {
			panic("torn read through RWMutex shim")
		}
	})
	ex, err := surw.Explore(prog, surw.Options{Schedules: 40, Algorithm: "RW"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Failures) != 0 {
		t.Fatalf("failures: %v", ex.Failures)
	}
	if len(ex.Interleavings) < 2 {
		t.Fatalf("only %d interleavings", len(ex.Interleavings))
	}
}

// TestNoBindingLeak: after sessions finish (including schedules that kill
// threads mid-body), no goroutine binding survives.
func TestNoBindingLeak(t *testing.T) {
	prog := surwsync.Program(func() {
		var wg surwsync.WaitGroup
		ch := surwsync.NewChan[int](0)
		wg.Add(1)
		surwsync.Go(func() {
			defer wg.Done()
			ch.Recv() // blocks forever: the schedule ends with this thread parked
		})
		_ = ch
	})
	res := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 1}})
	if res.Failure == nil || res.Failure.Kind != sched.FailDeadlock {
		t.Fatalf("expected deadlock from orphaned receiver, got %+v", res.Failure)
	}
	if n := sched.Bindings(); n != 0 {
		t.Fatalf("%d goroutine bindings leaked", n)
	}
}

// TestGoFallback: Go outside a session is a plain goroutine.
func TestGoFallback(t *testing.T) {
	done := make(chan int, 1)
	surwsync.Go(func() { done <- 7 })
	if v := <-done; v != 7 {
		t.Fatalf("got %d", v)
	}
	surwsync.Gosched() // no session: must be a no-op, not a panic
}

// A raw `go` goroutine started while a session is active has no binding:
// it must resolve no thread — not the session's, whatever goroutine key it
// was handed — and its primitives must act on the real sync types.
func TestForeignGoroutineFallsBack(t *testing.T) {
	var mu surwsync.Mutex // touched only by the foreign goroutine
	prog := surwsync.Program(func() {
		resolved := make(chan bool)
		go func() {
			_, ok := sched.CurrentThread()
			mu.Lock() // real sync.Mutex: never unlocked, checked below
			resolved <- ok
		}()
		if <-resolved {
			panic("foreign goroutine resolved a virtual thread")
		}
	})
	var log surw.EventLog
	res := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 1}, Tracer: &log})
	if res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	if len(log.Events) != 0 {
		t.Fatalf("foreign goroutine's Lock became %d scheduled event(s)", len(log.Events))
	}
	if mu.TryLock() {
		t.Fatal("foreign goroutine's Lock did not reach the real mutex")
	}
}

// Steady-state shim operations allocate nothing beyond their goroutine
// lookup (itself free wherever gkey is the assembly stub): the warm cache
// hit and the build closures (Chan's captures its receiver) stay off the
// heap.
func TestShimOpsDoNotAllocate(t *testing.T) {
	var lookup, allocs float64
	prog := surwsync.Program(func() {
		var mu surwsync.Mutex
		ch := surwsync.NewChan[int](1)
		lookup = testing.AllocsPerRun(100, func() { sched.CurrentThread() })
		allocs = testing.AllocsPerRun(100, func() {
			mu.Lock()
			mu.Unlock()
			ch.Len()
		})
	})
	if res := surw.Run(prog, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: 1}}); res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	if allocs != 3*lookup {
		t.Fatalf("%v allocs per lock/unlock/len under a session, want %v (three lookups)", allocs, 3*lookup)
	}
}

// Each primitive carries its real sync counterpart plus a sched.ShimCache
// of four words: an owner pointer, a generation, an object pointer and a
// spill-table pointer. Pinned in words, so it holds on 32-bit targets too.
// A Chan's counterpart is its capacity and its fallback channel's pointer.
func TestShimFootprint(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	cache := 3*word + 8
	// plus places the cache after a counterpart of size n, as the compiler
	// lays out the struct: at the next word, the whole rounded up to the
	// struct's alignment (8 for a WaitGroup even on 386).
	plus := func(n, align uintptr) uintptr {
		at := (n + word - 1) / word * word
		return (at + cache + align - 1) / align * align
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Mutex", unsafe.Sizeof(surwsync.Mutex{}), plus(unsafe.Sizeof(sync.Mutex{}), unsafe.Alignof(surwsync.Mutex{}))},
		{"RWMutex", unsafe.Sizeof(surwsync.RWMutex{}), plus(unsafe.Sizeof(sync.RWMutex{}), unsafe.Alignof(surwsync.RWMutex{}))},
		{"WaitGroup", unsafe.Sizeof(surwsync.WaitGroup{}), plus(unsafe.Sizeof(sync.WaitGroup{}), unsafe.Alignof(surwsync.WaitGroup{}))},
		{"Once", unsafe.Sizeof(surwsync.Once{}), plus(unsafe.Sizeof(sync.Once{}), unsafe.Alignof(surwsync.Once{}))},
		{"Chan[int]", unsafe.Sizeof(surwsync.Chan[int]{}), plus(2*word, unsafe.Alignof(surwsync.Chan[int]{}))},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(surwsync.%s) = %d, want %d (its sync counterpart and a %d-byte cache)", c.name, c.got, c.want, cache)
		}
	}
}

// Package-level primitives, and a Chan made outside any session: under
// parallel sessions every one of them is touched by several executions.
var (
	sharedMu   surwsync.Mutex
	sharedRW   surwsync.RWMutex
	sharedWG   surwsync.WaitGroup
	sharedOnce surwsync.Once
	sharedCh   = surwsync.NewChan[int](1)
)

// sharedProgram races two goroutines through every shared primitive and
// reports the order they took the mutex in as its behaviour.
func sharedProgram() {
	order := ""
	inits := 0
	sharedWG.Add(2)
	for _, name := range []string{"a", "b"} {
		surwsync.Go(func() {
			defer sharedWG.Done()
			sharedOnce.Do(func() { inits++ })
			sharedMu.Lock()
			order += name
			sharedMu.Unlock()
			sharedRW.RLock()
			_ = len(order)
			sharedRW.RUnlock()
			sharedCh.Send(1)
		})
	}
	sum := sharedCh.Recv1() + sharedCh.Recv1()
	sharedWG.Wait()
	sharedRW.Lock()
	sharedRW.Unlock()
	t, _ := sched.CurrentThread()
	if inits != 1 || sum != 2 || len(order) != 2 {
		t.Fail("shared primitives mixed two executions' objects")
	}
	t.SetBehavior(order)
}

// Parallel sessions share package-level primitives: the first execution to
// touch one owns its inline slot, and the others install its spill table
// concurrently (ci.sh runs this under -race). The run must equal the
// sequential one.
func TestSharedPrimitivesUnderParallelSessions(t *testing.T) {
	tgt := runner.Target{Name: "surwsync/shared", Prog: surwsync.Program(sharedProgram)}
	run := func(workers int) *runner.Result {
		res, err := runner.RunTarget(tgt, "RW", runner.Config{Sessions: 4, Limit: 40, Seed: 3, Coverage: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(2)
	orders := map[string]bool{}
	for _, s := range seq.Sessions {
		if len(s.Bugs) != 0 {
			t.Fatalf("sequential session failed: %v", s.Bugs)
		}
		for b := range s.Cov.Behaviors {
			orders[b] = true
		}
	}
	if len(orders) != 2 {
		t.Fatalf("mutex orders witnessed: %v, want ab and ba", orders)
	}
	if !seq.Equal(par) {
		t.Fatalf("Workers 2 diverged from Workers 1:\n seq: %+v\n par: %+v", seq.Sessions, par.Sessions)
	}
	if n := sched.Bindings(); n != 0 {
		t.Fatalf("%d goroutine bindings leaked", n)
	}
}
