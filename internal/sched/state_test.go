package sched

import (
	"math/rand"
	"testing"
)

// stateProbe inspects the State API at the first multi-enabled decision.
type stateProbe struct {
	f    func(*State)
	done bool
}

func (p *stateProbe) Name() string                   { return "state-probe" }
func (p *stateProbe) Begin(*ProgramInfo, *rand.Rand) {}
func (p *stateProbe) Observe(Event, *State)          {}
func (p *stateProbe) Next(st *State) ThreadID {
	if !p.done {
		p.done = true
		p.f(st)
	}
	return st.Enabled()[0]
}

func TestStateAccessors(t *testing.T) {
	probe := &stateProbe{f: func(st *State) {
		if st.NumThreads() != 3 {
			t.Errorf("NumThreads = %d", st.NumThreads())
		}
		if st.Path(0) != "0" || st.Path(1) != "0.0" || st.Path(2) != "0.1" {
			t.Error("paths wrong")
		}
		if st.PathHash(1) != HashName("0.0") {
			t.Error("path hash mismatch")
		}
		ev := st.NextEvent(1)
		if ev.TID != 1 || ev.Seq != 1 {
			t.Errorf("next event = %+v", ev)
		}
		if !ev.Kind.IsMemAccess() {
			t.Errorf("worker's first event should be a memory access, got %v", ev.Kind)
		}
		if st.ObjName(ev.Obj) != "v" || st.ObjKind(ev.Obj) != ObjVar {
			t.Errorf("object metadata: %q %v", st.ObjName(ev.Obj), st.ObjKind(ev.Obj))
		}
		if st.ObjName(0) != "" || st.ObjKind(0) != ObjNone {
			t.Error("zero object metadata wrong")
		}
		if st.Finished(1) || st.Sleeping(1) {
			t.Error("fresh worker misreported")
		}
		// Step counts executed events; at the first decision none have run.
		if st.Step() != 0 {
			t.Errorf("step = %d", st.Step())
		}
	}}
	res := Run(func(th *Thread) {
		v := th.NewVar("v", 0)
		h1 := th.Go(func(w *Thread) { v.Add(w, 1) })
		h2 := th.Go(func(w *Thread) { v.Add(w, 1) })
		th.Join(h1)
		th.Join(h2)
	}, probe, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
	if !probe.done {
		t.Fatal("probe never ran")
	}
}

func TestStateSleepingVisible(t *testing.T) {
	sawSleeping := false
	probe := &stateProbe{}
	probe.f = func(st *State) {}
	alg := &pollSleep{saw: &sawSleeping}
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		h := th.Go(func(w *Thread) {
			m.Lock(w)
			c.Wait(w)
			m.Unlock(w)
		})
		m.Lock(th)
		c.Signal(th)
		m.Unlock(th)
		th.Join(h)
	}, alg, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
	if !sawSleeping {
		t.Fatal("worker never observed sleeping")
	}
}

type pollSleep struct{ saw *bool }

func (p *pollSleep) Name() string                   { return "poll-sleep" }
func (p *pollSleep) Begin(*ProgramInfo, *rand.Rand) {}
func (p *pollSleep) Observe(_ Event, st *State) {
	for tid := 0; tid < st.NumThreads(); tid++ {
		if st.Sleeping(tid) {
			*p.saw = true
		}
	}
}

// Next prefers the highest TID, so the worker reaches its wait before the
// main thread signals.
func (p *pollSleep) Next(st *State) ThreadID {
	e := st.Enabled()
	return e[len(e)-1]
}

func TestObjectIDs(t *testing.T) {
	Run(func(th *Thread) {
		v := th.NewVar("v", 0)
		r := NewRef(th, "r", "x")
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		s := th.NewSemaphore("s", 1)
		ids := map[ObjID]bool{v.ID(): true, r.ID(): true, m.ID(): true, c.ID(): true, s.ID(): true}
		if len(ids) != 5 {
			t.Error("object IDs collide")
		}
		if r.Name() != "r" || c.Name() != "c" || s.Name() != "s" {
			t.Error("names wrong")
		}
		if r.Peek() != "x" {
			t.Error("ref peek wrong")
		}
		r.Set(th, "y")
		if r.Get(th) != "y" {
			t.Error("ref set/get wrong")
		}
	}, nil, Options{})
}

func TestVarUpdate(t *testing.T) {
	Run(func(th *Thread) {
		v := th.NewVar("v", 3)
		if got := v.Update(th, func(x int64) int64 { return x * x }); got != 9 {
			t.Errorf("update = %d", got)
		}
	}, nil, Options{})
}

func TestHashNameStable(t *testing.T) {
	if HashName("fs") != HashName("fs") || HashName("a") == HashName("b") {
		t.Fatal("HashName broken")
	}
}
