package surwsync

import (
	"sync/atomic"

	"surw/internal/sched"
)

// Chan is a drop-in Go channel. Under a controlled session its operations
// are scheduled events on a sched.Chan; outside one they act on a native
// channel made on the first operation outside a session, so a Chan that
// never leaves its session costs no native channel. Unlike the lock shims a
// Chan has a constructor (mirroring make(chan T, n)), so under a session the
// backing scheduler object is created eagerly at the NewChan call when a
// binding is active — constructor order is program order, which keeps the
// object's auto-assigned name stable across schedules.
//
// A nil *Chan panics on use (a nil native channel blocks forever); ported
// code that parks on nil channels must be restructured.
type Chan[T any] struct {
	capacity int
	real     atomic.Pointer[chan T] // the fallback's channel, once made (see native)
	cache    sched.ShimCache[sched.Chan[T]]
}

// NewChan mirrors make(chan T, capacity); capacity 0 is an unbuffered
// rendezvous channel.
func NewChan[T any](capacity int) *Chan[T] {
	c := &Chan[T]{capacity: max(capacity, 0)}
	if t, ok := sched.CurrentThread(); ok {
		c.sched(t) // eager: deterministic creation order (see type doc)
	}
	return c
}

func (c *Chan[T]) sched(t *sched.Thread) *sched.Chan[T] {
	return c.cache.Resolve(t, func(t *sched.Thread) *sched.Chan[T] {
		return sched.NewChan[T](t, "surwsync.chan", c.capacity)
	})
}

// native returns the fallback's channel, making it on first use. A Chan
// made in a session may outlive it and be used by several goroutines at
// once, so the channel is installed by one compare-and-swap and every
// caller uses the one that won.
func (c *Chan[T]) native() chan T {
	if p := c.real.Load(); p != nil {
		return *p
	}
	ch := make(chan T, c.capacity)
	if !c.real.CompareAndSwap(nil, &ch) {
		return *c.real.Load()
	}
	return ch
}

// Cap mirrors cap(ch).
func (c *Chan[T]) Cap() int { return c.capacity }

// Len mirrors len(ch).
func (c *Chan[T]) Len() int {
	if t, ok := sched.CurrentThread(); ok {
		return c.sched(t).Len()
	}
	return len(c.native())
}

// Send mirrors ch <- v, blocking by Go's rules. Sending on a closed
// channel panics (a program failure under a session).
func (c *Chan[T]) Send(v T) {
	if t, ok := sched.CurrentThread(); ok {
		c.sched(t).Send(t, v)
		return
	}
	c.native() <- v
}

// TrySend mirrors a select with a send case and a default: it reports
// whether v was accepted without blocking.
func (c *Chan[T]) TrySend(v T) bool {
	if t, ok := sched.CurrentThread(); ok {
		return c.sched(t).TrySend(t, v)
	}
	select {
	case c.native() <- v:
		return true
	default:
		return false
	}
}

// Recv mirrors v, ok := <-ch: ok is false iff the channel is closed and
// drained.
func (c *Chan[T]) Recv() (T, bool) {
	if t, ok := sched.CurrentThread(); ok {
		return c.sched(t).Recv(t)
	}
	v, ok := <-c.native()
	return v, ok
}

// Recv1 mirrors the single-valued v := <-ch (the zero value after close,
// as in Go).
func (c *Chan[T]) Recv1() T {
	v, _ := c.Recv()
	return v
}

// TryRecv mirrors a select with a receive case and a default: ok is false
// when nothing was immediately available (open-and-empty and
// closed-and-drained are not distinguished, matching sched.Chan).
func (c *Chan[T]) TryRecv() (T, bool) {
	if t, ok := sched.CurrentThread(); ok {
		return c.sched(t).TryRecv(t)
	}
	select {
	case v, ok := <-c.native():
		return v, ok
	default:
		var zero T
		return zero, false
	}
}

// Close mirrors close(ch); closing twice panics.
func (c *Chan[T]) Close() {
	if t, ok := sched.CurrentThread(); ok {
		c.sched(t).Close(t)
		return
	}
	close(c.native())
}
