package sched

import "fmt"

// WaitGroup mirrors sync.WaitGroup for programs under test: Add/Done are
// events on the counter and Wait blocks (via a condition variable) until
// it reaches zero.
type WaitGroup struct {
	mu    *Mutex
	zero  *Cond
	count *Var
}

// NewWaitGroup creates a wait group.
func (t *Thread) NewWaitGroup(name string) *WaitGroup {
	ex := t.ex
	mu := t.NewMutex(ex.internJoin(name, ".mu"))
	return carve(&ex.waitGroups, WaitGroup{
		mu:    mu,
		zero:  t.NewCond(ex.internJoin(name, ".zero"), mu),
		count: t.NewVar(ex.internJoin(name, ".count"), 0),
	})
}

// Add adds delta to the counter. A negative counter is a program error.
func (wg *WaitGroup) Add(t *Thread, delta int) {
	wg.mu.Lock(t)
	n := wg.count.Add(t, int64(delta))
	if n < 0 {
		panic(fmt.Sprintf("sched: negative WaitGroup counter %d", n))
	}
	if n == 0 {
		wg.zero.Broadcast(t)
	}
	wg.mu.Unlock(t)
}

// Done decrements the counter.
func (wg *WaitGroup) Done(t *Thread) { wg.Add(t, -1) }

// Wait blocks until the counter is zero.
func (wg *WaitGroup) Wait(t *Thread) {
	wg.mu.Lock(t)
	for wg.count.Load(t) != 0 {
		wg.zero.Wait(t)
	}
	wg.mu.Unlock(t)
}

// Count returns the current counter without an event.
func (wg *WaitGroup) Count(t *Thread) int { return int(wg.count.Peek()) }

// Once mirrors sync.Once: Do runs f exactly once across all threads;
// concurrent callers block (on the internal mutex) until the first
// completes — each step a scheduled event, so init races stay explorable.
type Once struct {
	mu   *Mutex
	done *Var
}

// NewOnce creates a Once.
func (t *Thread) NewOnce(name string) *Once {
	ex := t.ex
	return carve(&ex.onces, Once{
		mu:   t.NewMutex(ex.internJoin(name, ".mu")),
		done: t.NewVar(ex.internJoin(name, ".done"), 0),
	})
}

// Do runs f if no Do has completed before; otherwise it returns after the
// synchronization events without calling f.
func (o *Once) Do(t *Thread, f func()) {
	if o.done.Load(t) == 1 {
		return // fast path, like sync.Once's atomic check
	}
	o.mu.Lock(t)
	if o.done.Load(t) == 0 {
		f()
		o.done.Store(t, 1)
	}
	o.mu.Unlock(t)
}

// Did reports whether Do has completed, without an event.
func (o *Once) Did() bool { return o.done.Peek() == 1 }
