package sched

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// goexitProg spawns two children that write shared variables and leave
// through runtime.Goexit — one with a scheduling op deferred — and joins
// them, ending at x+y = 111; with rootExits the root leaves the same way
// once they are done.
func goexitProg(rootExits bool) func(*Thread) {
	return func(rt *Thread) {
		x, y := rt.NewVar("x", 0), rt.NewVar("y", 0)
		a := rt.Go(func(w *Thread) {
			y.Store(w, 100)
			runtime.Goexit()
		})
		b := rt.Go(func(w *Thread) {
			defer x.Add(w, 10)
			x.Add(w, 1)
			runtime.Goexit()
		})
		rt.JoinAll(a, b)
		rt.SetBehavior(itoa(x.Load(rt) + y.Load(rt)))
		if rootExits {
			runtime.Goexit()
		}
	}
}

// returning runs f on a goroutine of its own and returns its result,
// failing the test if f does not return: a Goexit that escaped its thread
// ends the goroutine that resumed it, and a lost baton hangs.
func returning(t *testing.T, f func() *Result) *Result {
	t.Helper()
	var res *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the schedule did not return")
	}
	if res == nil {
		t.Fatal("runtime.Goexit in a controlled thread ended the goroutine running the schedule")
	}
	return res
}

// settledGoroutines waits briefly for exiting goroutines to go and returns
// the count.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > limit; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestGoexitEndsItsThread: a controlled thread's runtime.Goexit ends that
// thread as a return would — its joiners are released, its deferred ops
// run as events — on both engines, one-shot and pooled; the pool stays
// bit-identical to a fresh one afterwards, and Close leaves no goroutine.
func TestGoexitEndsItsThread(t *testing.T) {
	baseline := runtime.NumGoroutine()
	plain := func(rt *Thread) { // the pool's next program, with no Goexit
		x := rt.NewVar("x", 0)
		h := rt.Go(func(w *Thread) { x.Add(w, 2) })
		x.Add(rt, 1)
		rt.Join(h)
	}
	for _, batched := range []bool{true, false} {
		for _, rootExits := range []bool{false, true} {
			prog := goexitProg(rootExits)
			p := NewPool()
			for seed := int64(0); seed < 30; seed++ {
				opts := Options{Base: Base{Seed: seed}, DisableBatching: !batched}
				want := returning(t, func() *Result { return Run(prog, &pickRandom{}, opts) })
				if want.Buggy() || want.Behavior != "111" || want.Threads != 3 {
					t.Fatalf("batched=%v rootExits=%v seed %d: %+v, want a bug-free schedule ending x+y = 111", batched, rootExits, seed, want)
				}
				got := returning(t, func() *Result { return p.Run(prog, &pickRandom{}, opts) })
				resultsEqual(t, "goexit", seed, want, got)
				resultsEqual(t, "after goexit", seed, Run(plain, &pickRandom{}, opts), p.Run(plain, &pickRandom{}, opts))
			}
			p.Close()
		}
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines after the pools closed, %d before", n, baseline)
	}
}

// panicsAfterGoexit picks the lowest enabled thread until it has decided
// once with T1 finished — T1's own last decision, before its coroutine
// parks inside its Goexit — then names a thread that does not exist: an
// engine panic on another thread's goroutine.
type panicsAfterGoexit struct{ after int }

func (*panicsAfterGoexit) Name() string                     { return "panics-after-goexit" }
func (a *panicsAfterGoexit) Begin(*ProgramInfo, *rand.Rand) { a.after = 0 }
func (*panicsAfterGoexit) Observe(Event, *State)            {}
func (a *panicsAfterGoexit) Next(st *State) ThreadID {
	if st.Finished(1) {
		if a.after++; a.after > 1 {
			return -1
		}
	}
	return st.Enabled()[0]
}

// TestCloseRetiresGoexitAfterEnginePanic: an engine panic that ends a
// schedule leaves a thread parked inside its Goexit; closing the pool
// finishes that Goexit on a goroutine of its own instead of passing it to
// the caller.
func TestCloseRetiresGoexitAfterEnginePanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPool()
	returning(t, func() (res *Result) {
		defer func() {
			if recover() == nil {
				t.Error("the schedule did not panic")
			}
			res = &Result{}
		}()
		return p.Run(func(rt *Thread) {
			x := rt.NewVar("x", 0)
			a := rt.Go(func(w *Thread) {
				x.Store(w, 1)
				runtime.Goexit()
			})
			b := rt.Go(func(w *Thread) { x.Add(w, 1) })
			rt.Join(a)
			x.Add(rt, 1)
			rt.Join(b)
		}, &panicsAfterGoexit{}, Options{})
	})
	returning(t, func() *Result {
		p.Close()
		return &Result{}
	})
	if n := settledGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines after the pool closed, %d before", n, baseline)
	}
}
