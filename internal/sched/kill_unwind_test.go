package sched

import "testing"

// A thread killed while parked inside Cond.Wait unwinds through deferred
// cleanup that itself issues scheduling ops — Chan.Recv's deferred
// mu.Unlock is the canonical case. Those ops must not re-enter the dead
// scheduler: before the killing-mode re-raise in Thread.sync, the unwind
// parked forever mid-defer, and a pooled execution would resume the stale
// unwind inside the NEXT schedule and corrupt it.
func TestKillUnwindsThroughDeferredOps(t *testing.T) {
	unwound := false
	prog := func(rt *Thread) {
		ch := NewChan[int](rt, "ch", 0)
		rt.Go(func(w *Thread) {
			defer func() { unwound = true }()
			ch.Recv(w) // parks forever: the schedule deadlocks
		})
	}

	res := Run(prog, nil, Options{})
	if res.Failure == nil || res.Failure.Kind != FailDeadlock {
		t.Fatalf("expected deadlock, got %+v", res.Failure)
	}
	if !unwound {
		t.Fatal("killed receiver's deferred cleanup did not run")
	}

	// Pooled: the schedule after the deadlock must be pristine.
	p := NewPool()
	defer p.Close()
	for s := int64(1); s <= 3; s++ {
		unwound = false
		r := p.Run(prog, nil, Options{Base: Base{Seed: s}})
		if r.Failure == nil || r.Failure.Kind != FailDeadlock {
			t.Fatalf("pooled schedule %d: expected deadlock, got %+v", s, r.Failure)
		}
		if !unwound {
			t.Fatalf("pooled schedule %d: kill unwind stalled", s)
		}
	}
}

// What a killed thread's deferred code does while it unwinds happens after
// the schedule ended, so it must not reach the schedule's Result: not a
// behaviour it sets, and not a failure it raises (a bug reported for a
// schedule that never hit it).
func TestKillTimeCodeDoesNotChangeTheResult(t *testing.T) {
	blocked := func(rt *Thread) {
		mu := rt.NewMutex("mu")
		mu.Lock(rt)
		h := rt.Go(func(c *Thread) {
			defer c.SetBehavior("x")
			mu.Lock(c) // the root holds it and joins: a deadlock
		})
		rt.Join(h)
	}
	spinning := func(rt *Thread) {
		rt.Go(func(c *Thread) {
			defer c.Assert(false, "k")
			for {
				c.Yield() // until MaxSteps truncates the schedule
			}
		})
	}
	p := NewPool()
	defer p.Close()
	for _, opts := range []Options{{Base: Base{MaxSteps: 50}}, {Base: Base{MaxSteps: 50}, DisableBatching: true}} {
		for form, run := range map[string]func(func(*Thread)) *Result{
			"Run":      func(prog func(*Thread)) *Result { return Run(prog, nil, opts) },
			"Pool.Run": func(prog func(*Thread)) *Result { return p.Run(prog, nil, opts) },
		} {
			if r := run(blocked); r.Failure == nil || r.Failure.Kind != FailDeadlock || r.Behavior != "" {
				t.Errorf("%s, batching off %v: deadlock with a killed SetBehavior: failure %+v, behaviour %q, want a deadlock and \"\"",
					form, opts.DisableBatching, r.Failure, r.Behavior)
			}
			if r := run(spinning); !r.Truncated || r.Failure != nil {
				t.Errorf("%s, batching off %v: truncated spin with a killed Assert: truncated %v, failure %+v, want truncated and none",
					form, opts.DisableBatching, r.Truncated, r.Failure)
			}
		}
	}
}
