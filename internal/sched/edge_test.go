package sched

import (
	"strings"
	"testing"
)

func TestUnlockNotHeldIsPanicFailure(t *testing.T) {
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		h := th.Go(func(w *Thread) { m.Lock(w) })
		th.Join(h)
		m.Unlock(th) // held by the exited child, not us
	}, pickLeft{}, Options{})
	if !res.Buggy() || res.Failure.Kind != FailPanic {
		t.Fatalf("failure = %+v, want panic", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "unlock") {
		t.Fatalf("message = %q", res.Failure.Msg)
	}
}

func TestWaitWithoutMutexIsPanicFailure(t *testing.T) {
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		c.Wait(th) // mutex not held
	}, nil, Options{})
	if !res.Buggy() || res.Failure.Kind != FailPanic {
		t.Fatalf("failure = %+v, want panic", res.Failure)
	}
}

func TestAbortWithSleepingThreads(t *testing.T) {
	// A failing assert must cleanly kill a thread asleep in a cond wait.
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		h := th.Go(func(w *Thread) {
			m.Lock(w)
			c.Wait(w) // sleeps forever
			m.Unlock(w)
		})
		th.Yield()
		th.Yield()
		th.Fail("abort-now")
		th.Join(h)
	}, pickLeft{}, Options{})
	if !res.Buggy() || res.BugID() != "abort-now" {
		t.Fatalf("failure = %+v", res.Failure)
	}
}

func TestSleepingForeverIsDeadlock(t *testing.T) {
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		m.Lock(th)
		c.Wait(th) // nobody will ever signal
		m.Unlock(th)
	}, nil, Options{})
	if !res.Buggy() || res.Failure.Kind != FailDeadlock {
		t.Fatalf("failure = %+v, want deadlock", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "wait") {
		t.Fatalf("deadlock message should name the waiting thread: %q", res.Failure.Msg)
	}
}

func TestSignalWithNoWaitersIsNoop(t *testing.T) {
	res := Run(func(th *Thread) {
		m := th.NewMutex("m")
		c := th.NewCond("c", m)
		m.Lock(th)
		c.Signal(th)
		c.Broadcast(th)
		m.Unlock(th)
	}, nil, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
}

func TestGrandchildren(t *testing.T) {
	var paths []string
	res := Run(func(th *Thread) {
		h := th.Go(func(c *Thread) {
			g := c.Go(func(g *Thread) {
				paths = append(paths, g.Path())
				g.Yield()
			})
			c.Join(g)
		})
		th.Join(h)
	}, pickLeft{}, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
	if len(paths) != 1 || paths[0] != "0.0.0" {
		t.Fatalf("grandchild path = %v", paths)
	}
}

func TestSpawnCascadeDuringPriming(t *testing.T) {
	// A child that spawns a grandchild before its first event exercises
	// the index-based priming loop.
	order := []int{}
	res := Run(func(th *Thread) {
		h := th.Go(func(c *Thread) {
			g := c.Go(func(g *Thread) { // spawned pre-first-event
				order = append(order, 2)
				g.Yield()
			})
			order = append(order, 1)
			c.Yield()
			c.Join(g)
		})
		th.Join(h)
	}, pickLeft{}, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSemaphoreBlocksAtZero(t *testing.T) {
	res := Run(func(th *Thread) {
		s := th.NewSemaphore("s", 0)
		h := th.Go(func(w *Thread) {
			s.P(w) // blocked until V
		})
		th.Yield()
		s.V(th)
		th.Join(h)
		if s.Count() != 0 {
			th.Fail("count-wrong")
		}
	}, pickLeft{}, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
}

func TestSemaphoreDeadlockAtZero(t *testing.T) {
	res := Run(func(th *Thread) {
		s := th.NewSemaphore("s", 0)
		s.P(th)
	}, nil, Options{})
	if !res.Buggy() || res.Failure.Kind != FailDeadlock {
		t.Fatalf("failure = %+v", res.Failure)
	}
}

func TestVarSwapAndHeldBy(t *testing.T) {
	Run(func(th *Thread) {
		v := th.NewVar("v", 7)
		if old := v.Swap(th, 9); old != 7 || v.Peek() != 9 {
			t.Errorf("swap: old=%d now=%d", old, v.Peek())
		}
		m := th.NewMutex("m")
		if m.HeldBy() != -1 {
			t.Error("fresh mutex held")
		}
		m.Lock(th)
		if m.HeldBy() != th.ID() {
			t.Error("owner wrong")
		}
		m.Unlock(th)
	}, nil, Options{})
}

func TestHandleTID(t *testing.T) {
	Run(func(th *Thread) {
		h := th.Go(func(w *Thread) { w.Yield() })
		if h.TID() != 1 {
			t.Errorf("handle tid = %d", h.TID())
		}
		th.Join(h)
	}, pickLeft{}, Options{})
}

func TestCASSemantics(t *testing.T) {
	Run(func(th *Thread) {
		v := th.NewVar("v", 1)
		if !v.CAS(th, 1, 2) || v.Peek() != 2 {
			t.Error("CAS success path wrong")
		}
		if v.CAS(th, 1, 3) || v.Peek() != 2 {
			t.Error("CAS failure path wrong")
		}
	}, nil, Options{})
}

func TestManyThreads(t *testing.T) {
	// 200 threads exercise the scheduler's scaling paths.
	res := Run(func(th *Thread) {
		c := th.NewVar("c", 0)
		hs := make([]*Handle, 200)
		for i := range hs {
			hs[i] = th.Go(func(w *Thread) { c.Add(w, 1) })
		}
		th.JoinAll(hs...)
		th.Assert(c.Peek() == 200, "count")
	}, &pickRandom{}, Options{Base: Base{Seed: 3}})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
	if res.Threads != 201 {
		t.Fatalf("threads = %d", res.Threads)
	}
}

func TestAssertfFormatsMessage(t *testing.T) {
	res := Run(func(th *Thread) {
		th.Assertf(false, "fmt-bug", "value was %d", 42)
	}, nil, Options{})
	if res.BugID() != "fmt-bug" || !strings.Contains(res.Failure.Msg, "value was 42") {
		t.Fatalf("failure = %+v", res.Failure)
	}
}

func TestJoinAlreadyFinished(t *testing.T) {
	res := Run(func(th *Thread) {
		h := th.Go(func(w *Thread) { w.Yield() })
		th.Yield()
		th.Yield()
		th.Yield()
		th.Join(h) // child likely finished already under leftmost
	}, pickLeft{}, Options{})
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
}

func TestEventStringFormats(t *testing.T) {
	with := Event{TID: 2, Seq: 3, Kind: OpRead, Obj: 4}
	without := Event{TID: 2, Seq: 3, Kind: OpYield}
	if !strings.Contains(with.String(), "read(o4)") {
		t.Fatalf("with obj: %q", with.String())
	}
	if strings.Contains(without.String(), "o0") {
		t.Fatalf("without obj: %q", without.String())
	}
}

// Failure.BugID and Failure.Msg are compared byte for byte by the flight
// recorder and replay; the failure path builds them without fmt and reuses
// what it can, so their exact text is pinned here. Run twice on one pool:
// the second schedule takes the interned message.
func TestFailureTextExact(t *testing.T) {
	cases := []struct {
		prog       func(*Thread)
		kind       FailKind
		bugID, msg string
		tid        ThreadID
	}{
		{func(rt *Thread) { rt.Assert(false, "inv-1") }, FailAssert, "inv-1", "assertion failed: inv-1", 0},
		{func(rt *Thread) { rt.Fail("lost") }, FailAssert, "lost", "failure: lost", 0},
		{func(rt *Thread) { rt.Assertf(false, "fmt", "x=%d", 4) }, FailAssert, "fmt", "x=4", 0},
		{func(rt *Thread) {
			m := rt.NewMutex("m")
			c := rt.NewCond("c", m)
			s := rt.NewSemaphore("s", 0)
			rt.Go(func(w *Thread) { m.Lock(w); c.Wait(w) })
			rt.Go(func(w *Thread) {})
			rt.Yield()
			rt.Yield()
			s.P(rt)
		}, FailDeadlock, "deadlock", "no enabled threads; blocked: T0(semP) T1(wait)", -1},
	}
	p := NewPool()
	defer p.Close()
	for i, c := range cases {
		for round := 0; round < 2; round++ {
			f := p.Run(c.prog, nil, Options{}).Failure
			if f == nil || f.Kind != c.kind || f.BugID != c.bugID || f.Msg != c.msg || f.TID != c.tid {
				t.Fatalf("case %d round %d: got %+v, want kind %v bug %q msg %q tid %d", i, round, f, c.kind, c.bugID, c.msg, c.tid)
			}
		}
	}
}
