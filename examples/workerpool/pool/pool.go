// Package pool is a realistic fixed-size worker pool written against the
// standard library — sync.Mutex, sync.WaitGroup, go statements, and a
// channel used as a wakeup token. It is the "real Go code" half of the
// `surw port` demonstration: the tool rewrites it mechanically onto
// surw/surwsync (the committed output is ../ported), after which the same
// logic runs under the controlled scheduler.
//
// The pool carries one seeded bug, marked BUG below: Close wakes parked
// workers with a single token instead of a broadcast, a lost wakeup that
// deadlocks the shutdown only under schedules where at least two workers
// are parked when Close fires. The surw campaign over the ported package
// finds it as a replayable deadlock; stress-running this package rarely
// does.
package pool

import "sync"

// Pool runs submitted jobs on a fixed set of worker goroutines.
type Pool struct {
	mu     sync.Mutex
	queue  []func()
	closed bool
	// wake carries a single pending-work token: Submit tops it up,
	// idle workers drain it. Capacity 1 — a dropped send just means a
	// token is already pending.
	wake chan struct{}
	wg   sync.WaitGroup
}

// New starts a pool of the given number of workers.
func New(workers int) *Pool {
	p := &Pool{wake: make(chan struct{}, 1)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.mu.Unlock()
			<-p.wake // park until there is (maybe) work
			p.mu.Lock()
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}

// Submit enqueues a job. Submitting to a closed pool is a no-op.
func (p *Pool) Submit(job func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, job)
	p.mu.Unlock()
	p.signal()
}

// signal tops up the wakeup token without blocking.
func (p *Pool) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Backlog returns the number of queued jobs.
func (p *Pool) Backlog() int {
	p.mu.Lock()
	n := len(p.queue)
	p.mu.Unlock()
	return n
}

// Close marks the pool closed, wakes the workers, and waits for them to
// exit.
//
// BUG (seeded): the wakeup is a single token, but several workers may be
// parked on it; one wakes, sees closed, and exits without passing the
// token on, leaving the rest parked forever — a lost wakeup. The fix
// would be close(p.wake) (a broadcast). The bug fires only under
// schedules where >= 2 workers are parked in <-p.wake when Close runs.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.signal()
	p.wg.Wait()
}

// Collect drains n values from a results channel into a slice; jobs
// typically send their results on such a channel.
func Collect(results chan int, n int) []int {
	out := make([]int, 0, n)
	for v := range results {
		out = append(out, v)
		if len(out) == n {
			break
		}
	}
	return out
}
