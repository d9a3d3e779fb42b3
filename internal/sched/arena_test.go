package sched

import (
	"fmt"
	"testing"
)

// Everything a schedule creates is carved from storage the Execution
// recycles (handles, composite structs, Ref cells, waiter buffers, interned
// names). These tests hold the two things recycling must never change: a
// schedule starts from fresh objects whatever the previous one left behind,
// and a pool that has been through anything runs like a new one.

// dirtyAll creates one of each primitive, checks each is in its initial
// state, and leaves each as far from it as a finishing schedule can.
func dirtyAll(rt *Thread) {
	mu := rt.NewMutex("mu")
	rw := rt.NewRWMutex("rw")
	sem := rt.NewSemaphore("sem", 1)
	v := rt.NewVar("v", 7)
	ref := NewRef(rt, "ref", "init")
	ch := NewChan[int](rt, "ch", 2)
	wg := rt.NewWaitGroup("wg")
	once := rt.NewOnce("once")
	cond := rt.NewCond("cond", mu)

	rt.Assert(mu.HeldBy() == -1, "mutex left locked")
	rt.Assert(rw.Readers() == 0 && rw.TryLock(rt), "rwmutex left held")
	rt.Assert(sem.Count() == 1, "semaphore left drained")
	rt.Assert(v.Peek() == 7, "var kept its value")
	rt.Assert(ref.Peek() == "init", "ref kept its value")
	rt.Assert(ch.Len() == 0, "channel kept its buffer")
	rt.Assert(wg.Count(rt) == 0, "waitgroup kept its count")
	rt.Assert(!once.Did(), "once stayed done")
	rt.Assert(len(rt.ex.obj(cond.id).waiters) == 0, "cond kept a waiter")

	sem.P(rt)
	v.Store(rt, 9)
	ref.Set(rt, "dirty")
	ch.Send(rt, 1)
	ch.Send(rt, 2)
	wg.Add(rt, 3)
	once.Do(rt, func() {})
	rt.Go(func(w *Thread) {
		mu.Lock(w)
		cond.Wait(w) // never signalled: the schedule ends in a deadlock
	})
	if _, ok := ch.Recv(rt); !ok {
		rt.Fail("recv")
	}
	ch.Close(rt)
}

func TestRecycledObjectsStartFresh(t *testing.T) {
	p := NewPool()
	defer p.Close()
	for s := int64(0); s < 4; s++ {
		r := p.Run(dirtyAll, &pickRandom{}, Options{Base: Base{Seed: s}})
		if r.Failure == nil || r.Failure.Kind != FailDeadlock {
			t.Fatalf("schedule %d: want the planted deadlock, got %+v", s, r.Failure)
		}
	}
}

// A handle taken before its arena grows points into the old backing array
// and must keep working: create far more of everything than a cold arena
// holds, then use the first of each.
func TestHandlesSurviveArenaGrowth(t *testing.T) {
	const n = 300
	prog := func(rt *Thread) {
		mu := rt.NewMutex("first.mu")
		v := rt.NewVar("first.v", 1)
		ref := NewRef(rt, "first.ref", 1)
		ch := NewChan[int](rt, "first.ch", 1)
		wg := rt.NewWaitGroup("first.wg")
		once := rt.NewOnce("first.once")
		wg.Add(rt, 1)
		h := rt.Go(func(w *Thread) {
			mu.Lock(w)
			v.Add(w, 1)
			mu.Unlock(w)
			ch.Send(w, 41)
			wg.Done(w)
		})
		for i := 0; i < n; i++ {
			rt.NewMutex("")
			rt.NewVar("", 0)
			NewRef(rt, "", i)
			NewChan[int](rt, fmt.Sprint("ch", i), 1)
			rt.NewWaitGroup(fmt.Sprint("wg", i))
			rt.NewOnce(fmt.Sprint("once", i))
			rt.Go(func(*Thread) {})
		}
		got, _ := ch.Recv(rt)
		wg.Wait(rt)
		rt.Join(h)
		once.Do(rt, func() { ref.Update(rt, func(x int) int { return x + got }) })
		rt.Assert(mu.Name() == "first.mu" && mu.HeldBy() == -1, "mutex handle")
		rt.Assert(v.Name() == "first.v" && v.Peek() == 2, "var handle")
		rt.Assert(ref.Name() == "first.ref" && ref.Peek() == 42, "ref handle")
		rt.Assert(once.Did() && wg.Count(rt) == 0 && ch.Len() == 0, "composite handles")
		rt.Assert(h.TID() == 1, "spawn handle")
	}
	p := NewPool()
	defer p.Close()
	for s := int64(0); s < 3; s++ { // cold arenas, then warm ones
		opts := Options{Base: Base{Seed: s, MaxSteps: 100000}}
		r := p.Run(prog, &pickRandom{}, opts)
		if r.Failure != nil || r.Truncated {
			t.Fatalf("schedule %d: %+v truncated=%v", s, r.Failure, r.Truncated)
		}
		resultsEqual(t, "growth", s, Run(prog, &pickRandom{}, opts), r)
	}
}

// An object slot hands its Ref cell on to the next schedule's object in
// that slot, which may be a Ref of another type, or no Ref at all, when
// the pool is pointed at another program.
func TestRefCellNotAdoptedAcrossTypes(t *testing.T) {
	type pair struct{ a, b int }
	ints := func(rt *Thread) {
		r := NewRef(rt, "r", 1)
		rt.Assert(r.Peek() == 1, "int cell not reset")
		r.Set(rt, 5)
		rt.Assert(r.Get(rt) == 5, "int cell lost a write")
	}
	strs := func(rt *Thread) {
		r := NewRef(rt, "r", "s")
		rt.Assert(r.Peek() == "s", "string cell not reset")
		rt.Assert(r.Update(rt, func(x string) string { return x + "!" }) == "s!", "string cell lost a write")
	}
	shifted := func(rt *Thread) {
		v := rt.NewVar("v", 3) // slot 0 held a Ref's cell a schedule ago
		r := NewRef(rt, "r", pair{1, 2})
		rt.Assert(v.Peek() == 3 && r.Peek() == pair{1, 2}, "shifted slots")
		r.Set(rt, pair{3, 4})
	}
	p := NewPool()
	defer p.Close()
	for i, prog := range []func(*Thread){ints, ints, strs, strs, ints, shifted, shifted, strs, ints} {
		if r := p.Run(prog, nil, Options{}); r.Failure != nil {
			t.Fatalf("program %d: %+v", i, r.Failure)
		}
	}
}

// After a deadlock's kill-unwind, and after an engine panic that leaves
// threads parked mid-schedule followed by Pool.Close, the pool's next
// schedules equal a fresh execution's bit for bit.
func TestPoolIdenticalAfterAbortedSchedules(t *testing.T) {
	p := NewPool()
	defer p.Close()
	abort := map[string]func(){
		"kill-unwind": func() {
			if r := p.Run(dirtyAll, nil, Options{}); r.Failure == nil || r.Failure.Kind != FailDeadlock {
				t.Fatalf("want the planted deadlock, got %+v", r.Failure)
			}
		},
		"closed mid-schedule": func() {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("algorithm panic did not abort the pooled run")
					}
				}()
				p.Run(poolPrograms()["chan-wg"], &panicAfter{n: 6}, Options{})
			}()
			p.Close()
		},
	}
	for how, do := range abort {
		for name, prog := range poolPrograms() {
			do()
			for seed := int64(0); seed < 10; seed++ {
				opts := Options{Base: Base{Seed: seed, MaxSteps: 300}, RecordTrace: true}
				resultsEqual(t, how+"/"+name, seed, Run(prog, &pickRandom{}, opts), p.Run(prog, &pickRandom{}, opts))
			}
		}
	}
}

// The allocation floor, pinned where it was reached: a warm pooled schedule
// that creates and uses one of each primitive allocates its Result and
// nothing else — the Failure is part of the Result, and an assertion's or a
// deadlock's message is interned — and into a Result the caller hands in
// (RunInto) nothing at all. The programs keep their own hands clean: no
// closures built per schedule.
func TestPooledScheduleAllocatesOnlyItsResult(t *testing.T) {
	var o struct {
		mu   *Mutex
		rw   *RWMutex
		sem  *Semaphore
		v    *Var
		ref  *Ref[int]
		ch   *Chan[int]
		bch  *Chan[int]
		wg   *WaitGroup
		once *Once
		cond *Cond
		fail string
	}
	inc := func(x int) int { return x + 1 }
	nop := func() {}
	child := func(w *Thread) {
		o.sem.P(w)
		o.rw.RLock(w)
		o.ref.Update(w, inc)
		o.rw.RUnlock(w)
		o.once.Do(w, nop)
		o.mu.Lock(w)
		o.v.Store(w, 1)
		o.cond.Signal(w)
		o.mu.Unlock(w)
		o.ch.Send(w, 7)
		o.bch.Send(w, 1)
		o.bch.TrySend(w, 2)
		o.wg.Done(w)
	}
	prog := func(rt *Thread) {
		o.mu = rt.NewMutex("mu")
		o.rw = rt.NewRWMutex("rw")
		o.sem = rt.NewSemaphore("sem", 1)
		o.v = rt.NewVar("", 0)
		o.ref = NewRef(rt, "ref", 0)
		o.ch = NewChan[int](rt, "ch", 0)
		o.bch = NewChan[int](rt, "bch", 2)
		o.wg = rt.NewWaitGroup("wg")
		o.once = rt.NewOnce("once")
		o.cond = rt.NewCond("cond", o.mu)
		o.wg.Add(rt, 1)
		h := rt.Go(child)
		o.mu.Lock(rt)
		for o.v.Load(rt) == 0 {
			o.cond.Wait(rt)
		}
		o.mu.Unlock(rt)
		got, _ := o.ch.Recv(rt)
		o.bch.Recv(rt)
		o.bch.TryRecv(rt)
		o.wg.Wait(rt)
		rt.Join(h)
		switch o.fail {
		case "assert":
			rt.Assert(got != 7, "planted")
		case "deadlock":
			o.sem.P(rt)
			o.sem.P(rt)
		}
	}
	p := NewPool()
	defer p.Close()
	alg := &pickRandom{}
	for _, c := range []struct {
		fail string
		kind FailKind
		want float64
	}{{"", 0, 1}, {"assert", FailAssert, 1}, {"deadlock", FailDeadlock, 1}} {
		o.fail = c.fail
		var last *Result
		var own Result
		opts := Options{Base: Base{Seed: 3}}
		for form, run := range map[string]func(){
			"Run":     func() { last = p.Run(prog, alg, opts) },
			"RunInto": func() { last = p.RunInto(&own, prog, alg, opts) },
		} {
			want := c.want
			if form == "RunInto" {
				want--
			}
			run() // warm-up: arenas, cells, names and this failure's message
			got := testing.AllocsPerRun(100, run)
			if (c.fail == "") != (last.Failure == nil) || (last.Failure != nil && last.Failure.Kind != c.kind) {
				t.Fatalf("%q: unexpected outcome %+v", c.fail, last.Failure)
			}
			if got != want {
				t.Errorf("%q: a warm pooled schedule allocates %v objects by %s, want %v", c.fail, got, form, want)
			}
		}
	}
}
