package surwsync

import (
	"sync"

	"surw/internal/sched"
)

// Program adapts a zero-argument shimmed program into a surw program: it
// binds the root virtual thread to the calling goroutine for the duration
// of fn, so every surwsync primitive fn touches (directly or in packages
// it calls) runs under the controlled scheduler.
//
//	report, err := surw.Test(surwsync.Program(run), opts)
func Program(fn func()) func(*sched.Thread) {
	return func(t *sched.Thread) {
		sched.BindGoroutine(t)
		defer sched.UnbindGoroutine()
		fn()
	}
}

// Go is the shim for the go statement. Under a session it spawns a virtual
// thread (scheduled like any other; the spawn itself is not an event, as
// in the paper's runtime) and binds it to fn's goroutine; outside a
// session it is exactly `go fn()`.
//
// Note one porting caveat: `go f(x)` evaluates x at spawn time, while the
// ported `surwsync.Go(func() { f(x) })` evaluates it when the child first
// runs. Capture loop variables explicitly if the original relied on
// spawn-time evaluation.
func Go(fn func()) {
	if t, ok := sched.CurrentThread(); ok {
		sched.GoBound(t, fn)
		return
	}
	go fn()
}

// Gosched is the shim for runtime.Gosched: a pure scheduling point under a
// session, a no-op outside one (the real Gosched is a hint; dropping it
// preserves semantics).
func Gosched() {
	if t, ok := sched.CurrentThread(); ok {
		t.Yield()
	}
}

// Mutex is a drop-in sync.Mutex. The zero value is an unlocked mutex.
type Mutex struct {
	real  sync.Mutex
	cache sched.ShimCache
}

func (m *Mutex) sched(t *sched.Thread) *sched.Mutex {
	return m.cache.Resolve(t, func(t *sched.Thread) any {
		return t.NewMutex("surwsync.Mutex")
	}).(*sched.Mutex)
}

// Lock locks m, as sync.Mutex.Lock.
func (m *Mutex) Lock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).Lock(t)
		return
	}
	m.real.Lock()
}

// Unlock unlocks m, as sync.Mutex.Unlock.
func (m *Mutex) Unlock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).Unlock(t)
		return
	}
	m.real.Unlock()
}

// TryLock tries to lock m and reports whether it succeeded, as
// sync.Mutex.TryLock.
func (m *Mutex) TryLock() bool {
	if t, ok := sched.CurrentThread(); ok {
		return m.sched(t).TryLock(t)
	}
	return m.real.TryLock()
}

// RWMutex is a drop-in sync.RWMutex. The zero value is an unlocked lock.
type RWMutex struct {
	real  sync.RWMutex
	cache sched.ShimCache
}

func (m *RWMutex) sched(t *sched.Thread) *sched.RWMutex {
	return m.cache.Resolve(t, func(t *sched.Thread) any {
		return t.NewRWMutex("surwsync.RWMutex")
	}).(*sched.RWMutex)
}

// Lock acquires the write lock.
func (m *RWMutex) Lock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).Lock(t)
		return
	}
	m.real.Lock()
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).Unlock(t)
		return
	}
	m.real.Unlock()
}

// RLock acquires a read lock.
func (m *RWMutex) RLock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).RLock(t)
		return
	}
	m.real.RLock()
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock() {
	if t, ok := sched.CurrentThread(); ok {
		m.sched(t).RUnlock(t)
		return
	}
	m.real.RUnlock()
}

// TryLock tries to acquire the write lock.
func (m *RWMutex) TryLock() bool {
	if t, ok := sched.CurrentThread(); ok {
		return m.sched(t).TryLock(t)
	}
	return m.real.TryLock()
}

// TryRLock tries to acquire a read lock.
func (m *RWMutex) TryRLock() bool {
	if t, ok := sched.CurrentThread(); ok {
		return m.sched(t).TryRLock(t)
	}
	return m.real.TryRLock()
}

// WaitGroup is a drop-in sync.WaitGroup. The zero value is ready to use.
type WaitGroup struct {
	real  sync.WaitGroup
	cache sched.ShimCache
}

func (wg *WaitGroup) sched(t *sched.Thread) *sched.WaitGroup {
	return wg.cache.Resolve(t, func(t *sched.Thread) any {
		return t.NewWaitGroup("surwsync.wg")
	}).(*sched.WaitGroup)
}

// Add adds delta to the counter, as sync.WaitGroup.Add.
func (wg *WaitGroup) Add(delta int) {
	if t, ok := sched.CurrentThread(); ok {
		wg.sched(t).Add(t, delta)
		return
	}
	wg.real.Add(delta)
}

// Done decrements the counter.
func (wg *WaitGroup) Done() {
	if t, ok := sched.CurrentThread(); ok {
		wg.sched(t).Done(t)
		return
	}
	wg.real.Done()
}

// Wait blocks until the counter is zero.
func (wg *WaitGroup) Wait() {
	if t, ok := sched.CurrentThread(); ok {
		wg.sched(t).Wait(t)
		return
	}
	wg.real.Wait()
}

// Once is a drop-in sync.Once. The zero value is ready to use.
type Once struct {
	real  sync.Once
	cache sched.ShimCache
}

func (o *Once) sched(t *sched.Thread) *sched.Once {
	return o.cache.Resolve(t, func(t *sched.Thread) any {
		return t.NewOnce("surwsync.Once")
	}).(*sched.Once)
}

// Do calls f exactly once (per schedule, under a session), as
// sync.Once.Do.
func (o *Once) Do(f func()) {
	if t, ok := sched.CurrentThread(); ok {
		o.sched(t).Do(t, f)
		return
	}
	o.real.Do(f)
}
