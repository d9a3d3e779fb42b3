package sched

import (
	"runtime"
	"testing"
)

// A closed pool is what a recycled runner worker brings its next session:
// the storage of whatever program ran last, the coroutines ended, and any
// program may come next. Here are the cases recycling makes routine: after
// program A and Close, program B runs event for event as sched.Run(B) does,
// on both engines.

// refSlots returns a program whose second object is a Ref holding init,
// which a child and the root both update through f.
func refSlots[E comparable](init E, f func(E) E, show func(E) string) func(*Thread) {
	return func(rt *Thread) {
		v := rt.NewVar("v", 0)
		r := NewRef(rt, "r", init)
		rt.Assert(r.Peek() == r.Get(rt), "a fresh cell reads its initial value")
		h := rt.Go(func(w *Thread) {
			r.Update(w, f)
			v.Add(w, 1)
		})
		r.Update(rt, f)
		v.Add(rt, 1)
		rt.Join(h)
		rt.SetBehavior(show(r.Peek()))
	}
}

// TestClosedPoolRunsAnotherRefType: object 2 is a Ref[int] in A and a
// Ref[pair] in B, so B's slot meets A's cell of another type.
func TestClosedPoolRunsAnotherRefType(t *testing.T) {
	type pair struct{ a, b int64 }
	ints := refSlots(int64(1), func(x int64) int64 { return x*3 + 1 }, itoa)
	pairs := refSlots(pair{1, 2}, func(p pair) pair { return pair{p.b, p.a + p.b} },
		func(p pair) string { return itoa(p.a) + "," + itoa(p.b) })
	for _, batched := range []bool{true, false} {
		p := NewPool()
		for seed := int64(0); seed < 20; seed++ {
			opts := Options{Base: Base{Seed: seed}, RecordTrace: true, DisableBatching: !batched}
			a, b := ints, pairs
			if seed%2 == 1 {
				a, b = pairs, ints
			}
			p.Run(a, &pickRandom{}, opts)
			p.Close()
			want := Run(b, &pickRandom{}, opts)
			if want.Buggy() || want.Behavior == "" {
				t.Fatalf("seed %d: %+v, want a bug-free schedule with a behaviour", seed, want)
			}
			resultsEqual(t, "Ref type after Close", seed, want, p.Run(b, &pickRandom{}, opts))
			p.Close()
		}
	}
}

// TestClosedPoolRunsAfterParkedGoexit: A's last schedule ended in an engine
// panic with a child parked inside its runtime.Goexit; Close retires it, and
// B — a program with no Goexit — runs as on a fresh pool. No goroutine is
// left behind.
func TestClosedPoolRunsAfterParkedGoexit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	exits := func(rt *Thread) { // TestCloseRetiresGoexitAfterEnginePanic's program
		x := rt.NewVar("x", 0)
		a := rt.Go(func(w *Thread) {
			x.Store(w, 1)
			runtime.Goexit()
		})
		b := rt.Go(func(w *Thread) { x.Add(w, 1) })
		rt.Join(a)
		x.Add(rt, 1)
		rt.Join(b)
	}
	plain := func(rt *Thread) {
		x := rt.NewVar("x", 0)
		h := rt.Go(func(w *Thread) { x.Add(w, 2) })
		g := rt.Go(func(w *Thread) { x.Add(w, 3) })
		x.Add(rt, 1)
		rt.JoinAll(h, g)
		rt.SetBehavior(itoa(x.Load(rt)))
	}
	for _, batched := range []bool{true, false} {
		p := NewPool()
		for seed := int64(0); seed < 10; seed++ {
			returning(t, func() (res *Result) {
				defer func() {
					if recover() == nil {
						t.Error("the schedule did not panic")
					}
					res = &Result{}
				}()
				return p.Run(exits, &panicsAfterGoexit{}, Options{DisableBatching: !batched})
			})
			if p.ex.goexits == 0 {
				t.Fatalf("batched=%v: the panicked schedule left no thread parked inside its Goexit", batched)
			}
			returning(t, func() *Result {
				p.Close()
				return &Result{}
			})
			opts := Options{Base: Base{Seed: seed}, RecordTrace: true, DisableBatching: !batched}
			resultsEqual(t, "after a parked Goexit", seed, Run(plain, &pickRandom{}, opts), p.Run(plain, &pickRandom{}, opts))
		}
		p.Close()
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines after the pools closed, %d before", n, baseline)
	}
}

// TestClosedPoolKeepsItsStorage: a closed pool's next schedule allocates a
// coroutine per thread and the child paths it interns again, and nothing
// more — the thread structs, the object table and its arenas, the maps and
// the spawn memo are the pool's still. One coroutine's cost is read off a
// one-thread program whose names are all literals.
func TestClosedPoolKeepsItsStorage(t *testing.T) {
	var o struct {
		x  *Var
		mu *Mutex
	}
	child := func(w *Thread) {
		o.mu.Lock(w)
		o.x.Add(w, 1)
		o.mu.Unlock(w)
	}
	three := func(rt *Thread) {
		o.x, o.mu = rt.NewVar("x", 0), rt.NewMutex("mu")
		a, b := rt.Go(child), rt.Go(child)
		rt.Join(a)
		rt.Join(b)
	}
	one := func(rt *Thread) { rt.NewVar("x", 0).Add(rt, 1) }
	restart := func(prog func(*Thread)) float64 {
		p := NewPool()
		defer p.Close()
		var res Result
		p.RunInto(&res, prog, nil, Options{})
		return testing.AllocsPerRun(20, func() {
			p.Close()
			p.RunInto(&res, prog, nil, Options{})
		})
	}
	coroutine := restart(one)
	if coroutine == 0 {
		t.Fatal("a closed pool's schedule started no coroutine")
	}
	if got, want := restart(three), 3*coroutine+2; got != want {
		t.Fatalf("a closed pool's three-thread schedule allocates %v objects, want %v: three coroutines of %v and the paths 0.0 and 0.1", got, want, coroutine)
	}
}
