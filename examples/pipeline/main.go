// Pipeline tests an idiomatic Go fan-in over channels and exposes a real
// close-race: two producers share a "last one closes the channel" counter
// implemented with a non-atomic load/store pair. Under racing interleavings
// either nobody closes (the consumer deadlocks) or both do (close of closed
// channel). SURW finds a failing schedule, and the recording is minimized
// down to the few context switches that matter.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"surw"
)

func pipeline(t *surw.Thread) {
	results := surw.NewChan[int](t, "results", 2)
	done := t.NewVar("done", 0)

	producer := func(id int) func(*surw.Thread) {
		return func(w *surw.Thread) {
			results.Send(w, id)
			// Bug: the "last one closes" idiom implemented with separate
			// load and store instead of an atomic decrement-and-test.
			n := done.Load(w)
			done.Store(w, n+1)
			if n+1 == 2 { // believes it is the last producer
				results.Close(w)
			}
		}
	}
	p1 := t.Go(producer(1))
	p2 := t.Go(producer(2))

	sum := 0
	for {
		v, ok := results.Recv(t)
		if !ok {
			break
		}
		sum += v
	}
	t.Join(p1)
	t.Join(p2)
	t.Assert(sum == 3, "lost-result")
}

func main() {
	opts := surw.Options{Base: surw.Base{Seed: 2}, Schedules: 3000}
	report, err := surw.Test(pipeline, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	if !report.Found() {
		return
	}

	// Record the failure with the replay seed, then minimize the schedule.
	res, rec := surw.RecordRun(pipeline, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: report.Seed}})
	if !res.Buggy() {
		// The failing seed was found under SURW; hunt again with RW for a
		// recordable repro.
		for s := int64(0); s < 20000; s++ {
			res, rec = surw.RecordRun(pipeline, surw.NewRandomWalk(), surw.RunOptions{Base: surw.Base{Seed: s}})
			if res.Buggy() {
				break
			}
		}
	}
	if !res.Buggy() {
		fmt.Println("no RW repro found for minimization demo")
		return
	}
	fmt.Printf("recorded failure: %v\n", res.Failure)
	min, replays := surw.MinimizeRecording(pipeline, rec, res.BugID(), surw.RunOptions{}, 5000)
	fmt.Printf("minimized after %d replays: %s\n", replays, min)
	var trace surw.EventLog
	surw.ReplayRecording(pipeline, min, surw.RunOptions{Tracer: &trace})
	fmt.Printf("minimal failing interleaving (%d events):\n", len(trace.Events))
	for _, ev := range trace.Events {
		fmt.Printf("  %v\n", ev)
	}
}
