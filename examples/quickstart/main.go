// Quickstart: find a classic lost-update bug with SURW.
//
// The program under test is a bank balance mutated by a locked deposit and
// an unlocked withdrawal: under most schedules the final balance is right,
// but an interleaving that splits the withdrawal's read-modify-write loses
// the deposit. surw.Test profiles the program once, picks interesting
// events automatically, and hunts for a failing schedule; the failure is
// then replayed deterministically to print its exact event trace.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"surw"
)

func account(t *surw.Thread) {
	mu := t.NewMutex("mu")
	balance := t.NewVar("balance", 100)

	deposit := t.Go(func(w *surw.Thread) {
		mu.Lock(w)
		balance.Store(w, balance.Load(w)+50)
		mu.Unlock(w)
	})
	withdraw := t.Go(func(w *surw.Thread) {
		// Bug: the lock is missing, so the load/store pair can straddle
		// the deposit and lose it.
		balance.Store(w, balance.Load(w)-30)
	})
	t.Join(deposit)
	t.Join(withdraw)

	t.Assert(balance.Peek() == 120, "lost-update")
}

func main() {
	opts := surw.Options{Base: surw.Base{Seed: 7}, Schedules: 1000}
	report, err := surw.Test(account, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	if !report.Found() {
		return
	}

	// Replay the failing schedule deterministically and show its trace.
	res, events, err := surw.Replay(account, report, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed: %v\n", res.Failure)
	fmt.Println("failing interleaving:")
	for _, ev := range events {
		fmt.Printf("  %v\n", ev)
	}
}
