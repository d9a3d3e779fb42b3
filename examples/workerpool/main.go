// Workerpool runs REAL Go code — a worker pool written against the
// standard library — under the controlled scheduler. The stdlib package
// lives in ./pool; ./ported is the same package mechanically rewritten
// onto surw/surwsync by `surw port`:
//
//	go run ./cmd/surw port -src examples/workerpool/pool -dst examples/workerpool/ported
//
// The pool seeds a classic lost wakeup: Close wakes parked workers with a
// single token instead of a broadcast, so when two workers are parked at
// shutdown one stays parked forever. Stress-running the stdlib package
// almost never catches it; SURW over the ported package finds it as a
// replayable deadlock in a handful of schedules.
//
//	go run ./examples/workerpool
package main

import (
	"fmt"
	"log"

	"surw"
	pool "surw/examples/workerpool/ported"
	"surw/surwsync"
)

// scenario submits two jobs to a two-worker pool, collects the results,
// and shuts the pool down. surwsync.Program adapts it from plain func()
// to the scheduler's entry signature by binding the root goroutine.
var scenario = surwsync.Program(func() {
	p := pool.New(2)
	results := surwsync.NewChan[int](2)
	for i := 1; i <= 2; i++ {
		v := i
		p.Submit(func() { results.Send(v) })
	}
	got := pool.Collect(results, 2)
	if got[0]+got[1] != 3 {
		panic("worker pool lost a job result")
	}
	p.Close() // lost wakeup: deadlocks when both workers are parked
})

func main() {
	report, err := surw.Test(scenario, surw.Options{Base: surw.Base{Seed: 1}, Schedules: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	if !report.Found() {
		return
	}

	// The failure replays from the report alone: same seed, same schedule.
	res, events, err := surw.Replay(scenario, report, surw.Options{Base: surw.Base{Seed: 1}, Schedules: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed: %v\n", res.Failure)
	fmt.Printf("failing interleaving (%d events):\n", len(events))
	for _, ev := range events {
		fmt.Printf("  %v\n", ev)
	}
}
