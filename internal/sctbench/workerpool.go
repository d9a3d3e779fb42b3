package sctbench

import (
	"fmt"

	pool "surw/examples/workerpool/ported"
	"surw/internal/runner"
	"surw/surwsync"
)

// WorkerPoolTargets returns the surwsync-shim target family: real Go code
// (the examples/workerpool package, ported onto surwsync by `surw port`)
// running as campaign targets through the goroutine-binding frontend
// rather than the explicit *sched.Thread API. They ride beside the Table 4
// rows in ByName/Names — and may be opted into a campaign grid with
// -sct-targets — but are not part of Targets(), since the paper's tables
// never include them.
func WorkerPoolTargets() []runner.Target {
	return []runner.Target{WorkerPool(2, 2), WorkerPool(3, 2)}
}

// WorkerPool submits jobs to a pool of workers, drains their results, and
// shuts the pool down. The pool's Close carries the seeded lost-wakeup
// bug (see examples/workerpool/pool): under schedules where at least two
// workers are parked on the wakeup token when Close fires, the single
// token wakes only one of them and the shutdown deadlocks — found by the
// scheduler as a deadlock failure, replayable by seed.
func WorkerPool(workers, jobs int) runner.Target {
	return runner.Target{
		Name: fmt.Sprintf("WP/pool_%dw%dj", workers, jobs),
		Prog: surwsync.Program(func() {
			p := pool.New(workers)
			results := surwsync.NewChan[int](jobs)
			for i := 0; i < jobs; i++ {
				v := i + 1
				p.Submit(func() { results.Send(v) })
			}
			got := pool.Collect(results, jobs)
			sum := 0
			for _, v := range got {
				sum += v
			}
			if sum != jobs*(jobs+1)/2 {
				panic("worker pool lost a job result")
			}
			p.Close()
		}),
	}
}
