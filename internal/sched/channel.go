package sched

// Chan is a Go-style channel for programs under test, built from the
// substrate's primitives so that every send and receive decomposes into
// scheduled events (lock, state access, wait/signal) the algorithms can
// interleave. Semantics follow Go's: a buffered channel blocks sends when
// full and receives when empty; an unbuffered channel rendezvouses (the
// send completes only after a receiver takes the value); receiving from a
// closed drained channel yields (zero, false); sending on a closed channel
// or closing twice is a program error that fails the schedule.
type Chan[T any] chanParts

// chanParts is a Chan's layout, the same for every T so that all channels
// share one arena (Execution.chans).
type chanParts struct {
	capacity int
	mu       *Mutex
	notFull  *Cond
	notEmpty *Cond
	taken    *Cond   // unbuffered rendezvous: slot consumed
	state    *handle // a *Ref[chanState[T]]: see Chan.st
}

func (c *Chan[T]) st() *Ref[chanState[T]] { return (*Ref[chanState[T]])(c.state) }

type chanState[T any] struct {
	buf    []T
	closed bool
	// unbuffered handoff slot:
	slotFull bool
	slot     T
	consumed bool
}

// NewChan creates a channel with the given capacity (0 = unbuffered).
func NewChan[T any](t *Thread, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	ex := t.ex
	mu := t.NewMutex(ex.internJoin(name, ".mu"))
	notFull := t.NewCond(ex.internJoin(name, ".notFull"), mu)
	notEmpty := t.NewCond(ex.internJoin(name, ".notEmpty"), mu)
	taken := t.NewCond(ex.internJoin(name, ".taken"), mu)
	// The state starts empty in the buffer the slot's previous channel
	// left behind, so a pooled session stops growing it after warm-up.
	state, s := newRefCell[chanState[T]](t, ex.internJoin(name, ".state"))
	clear(s.buf) // drop the previous schedule's values
	*s = chanState[T]{buf: s.buf[:0]}
	return (*Chan[T])(carve(&ex.chans, chanParts{
		capacity: capacity,
		mu:       mu,
		notFull:  notFull,
		notEmpty: notEmpty,
		taken:    taken,
		state:    (*handle)(state),
	}))
}

// shift removes the buffer's head by moving the rest down, not by
// reslicing buf[1:]: the buffer is recycled by the next schedule and must
// keep its capacity (as Cond.Signal's waiters do).
func (s *chanState[T]) shift() (v T) {
	v = s.buf[0]
	n := copy(s.buf, s.buf[1:])
	var zero T
	s.buf[n] = zero
	s.buf = s.buf[:n]
	return v
}

// Cap returns the channel capacity.
func (c *Chan[T]) Cap() int { return c.capacity }

// Len returns the current number of buffered elements without an event.
func (c *Chan[T]) Len() int { return len(c.st().Peek().buf) }

// Send sends v, blocking by Go's rules.
func (c *Chan[T]) Send(t *Thread, v T) {
	c.mu.Lock(t)
	defer c.mu.Unlock(t)
	if c.capacity == 0 {
		c.sendUnbuffered(t, v)
		return
	}
	for {
		s := c.st().Get(t)
		if s.closed {
			panic("send on closed channel")
		}
		if len(s.buf) < c.capacity {
			break
		}
		c.notFull.Wait(t)
	}
	c.st().Update(t, func(s chanState[T]) chanState[T] {
		s.buf = append(s.buf, v)
		return s
	})
	c.notEmpty.Signal(t)
}

func (c *Chan[T]) sendUnbuffered(t *Thread, v T) {
	// Wait for the handoff slot.
	for {
		s := c.st().Get(t)
		if s.closed {
			panic("send on closed channel")
		}
		if !s.slotFull {
			break
		}
		c.notFull.Wait(t)
	}
	c.st().Update(t, func(s chanState[T]) chanState[T] {
		s.slot = v
		s.slotFull = true
		s.consumed = false
		return s
	})
	c.notEmpty.Signal(t)
	// Rendezvous: the send completes only once a receiver consumed v.
	for {
		s := c.st().Get(t)
		if s.consumed {
			break
		}
		if s.closed {
			panic("send on closed channel")
		}
		c.taken.Wait(t)
	}
	c.st().Update(t, func(s chanState[T]) chanState[T] {
		s.slotFull = false
		s.consumed = false
		return s
	})
	c.notFull.Signal(t)
}

// TrySend sends v without blocking and reports whether it was accepted: a
// buffered channel takes it while the buffer has room, an unbuffered one
// only when a receiver is already committed to the rendezvous (never, under
// this fully serialized model — as in a Go select-with-default, where an
// unbuffered TrySend succeeds only against a concurrently parked receiver,
// which here would already have consumed the slot). Sending on a closed
// channel is a program error, as for Send.
func (c *Chan[T]) TrySend(t *Thread, v T) bool {
	c.mu.Lock(t)
	defer c.mu.Unlock(t)
	s := c.st().Get(t)
	if s.closed {
		panic("send on closed channel")
	}
	if c.capacity == 0 || len(s.buf) >= c.capacity {
		return false
	}
	c.st().Update(t, func(s chanState[T]) chanState[T] {
		s.buf = append(s.buf, v)
		return s
	})
	c.notEmpty.Signal(t)
	return true
}

// Recv receives a value; ok is false iff the channel is closed and
// drained, mirroring Go's `v, ok := <-ch`.
func (c *Chan[T]) Recv(t *Thread) (v T, ok bool) {
	c.mu.Lock(t)
	defer c.mu.Unlock(t)
	for {
		s := c.st().Get(t)
		if c.capacity == 0 && s.slotFull && !s.consumed {
			c.st().Update(t, func(s chanState[T]) chanState[T] {
				v = s.slot
				s.consumed = true
				return s
			})
			c.taken.Signal(t)
			return v, true
		}
		if len(s.buf) > 0 {
			c.st().Update(t, func(s chanState[T]) chanState[T] {
				v = s.shift()
				return s
			})
			c.notFull.Signal(t)
			return v, true
		}
		if s.closed {
			return v, false
		}
		c.notEmpty.Wait(t)
	}
}

// TryRecv receives without blocking; ok is false when nothing was
// available (the channel being open-and-empty or closed-and-drained are
// not distinguished, as in a select-with-default).
func (c *Chan[T]) TryRecv(t *Thread) (v T, ok bool) {
	c.mu.Lock(t)
	defer c.mu.Unlock(t)
	s := c.st().Get(t)
	if c.capacity == 0 && s.slotFull && !s.consumed {
		c.st().Update(t, func(s chanState[T]) chanState[T] {
			v = s.slot
			s.consumed = true
			return s
		})
		c.taken.Signal(t)
		return v, true
	}
	if len(s.buf) > 0 {
		c.st().Update(t, func(s chanState[T]) chanState[T] {
			v = s.shift()
			return s
		})
		c.notFull.Signal(t)
		return v, true
	}
	return v, false
}

// Close closes the channel; closing twice is a program error.
func (c *Chan[T]) Close(t *Thread) {
	c.mu.Lock(t)
	defer c.mu.Unlock(t)
	s := c.st().Get(t)
	if s.closed {
		panic("close of closed channel")
	}
	c.st().Update(t, func(s chanState[T]) chanState[T] {
		s.closed = true
		return s
	})
	c.notEmpty.Broadcast(t)
	c.notFull.Broadcast(t)
	c.taken.Broadcast(t)
}
