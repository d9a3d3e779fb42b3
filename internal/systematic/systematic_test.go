package systematic

import (
	"testing"

	"surw/internal/core"
	"surw/internal/sched"
	"surw/internal/stats"
)

// count exhaustively counts the feasible interleavings of a small program
// (ok=false when the budget ran out first).
func count(prog func(*sched.Thread), maxSchedules int) (n int, ok bool) {
	r := Explore(prog, Options{MaxSchedules: maxSchedules})
	return len(r.Interleavings), r.Exhausted
}

// freeThreads spawns workers with the given event counts and never joins,
// so the interleaving space is exactly the multinomial of the counts.
func freeThreads(counts ...int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		for _, n := range counts {
			n := n
			t.Go(func(w *sched.Thread) {
				for i := 0; i < n; i++ {
					x.Add(w, 1)
				}
			})
		}
	}
}

func TestExhaustiveCountMatchesMultinomial(t *testing.T) {
	cases := [][]int{{3, 3}, {2, 2, 2}, {4, 1}, {1, 1, 1, 1}}
	for _, counts := range cases {
		want := int(stats.Multinomial(counts...) + 0.5)
		got, ok := count(freeThreads(counts...), 200_000)
		if !ok {
			t.Fatalf("%v: budget exhausted", counts)
		}
		if got != want {
			t.Fatalf("%v: counted %d interleavings, want %d", counts, got, want)
		}
	}
}

func TestPreemptionBoundZeroGivesBlockOrders(t *testing.T) {
	// With zero preemptions, only thread block orders remain: k! schedules
	// (threads are never blocked in this program).
	r := Explore(freeThreads(3, 3), Options{BoundPreemptions: true})
	if !r.Exhausted {
		t.Fatal("not exhausted")
	}
	if len(r.Interleavings) != 2 {
		t.Fatalf("PB(0) found %d interleavings, want 2", len(r.Interleavings))
	}
	r3 := Explore(freeThreads(2, 2, 2), Options{BoundPreemptions: true})
	if len(r3.Interleavings) != 6 {
		t.Fatalf("PB(0) on 3 threads found %d, want 3! = 6", len(r3.Interleavings))
	}
}

func TestPreemptionBoundMonotone(t *testing.T) {
	prog := freeThreads(3, 3)
	prev := 0
	for pb := 0; pb <= 4; pb++ {
		r := Explore(prog, Options{BoundPreemptions: true, PreemptionBound: pb})
		if !r.Exhausted {
			t.Fatalf("PB(%d) not exhausted", pb)
		}
		if len(r.Interleavings) < prev {
			t.Fatalf("PB(%d) shrank the space: %d < %d", pb, len(r.Interleavings), prev)
		}
		prev = len(r.Interleavings)
	}
	full, _ := count(prog, 100_000)
	if prev != full {
		t.Fatalf("PB(4) on 3+3 events should already be complete: %d vs %d", prev, full)
	}
}

func TestExploreFindsAllBugsOfDeadlock01(t *testing.T) {
	prog := func(t *sched.Thread) {
		a := t.NewMutex("a")
		b := t.NewMutex("b")
		h1 := t.Go(func(w *sched.Thread) {
			a.Lock(w)
			b.Lock(w)
			b.Unlock(w)
			a.Unlock(w)
		})
		h2 := t.Go(func(w *sched.Thread) {
			b.Lock(w)
			a.Lock(w)
			a.Unlock(w)
			b.Unlock(w)
		})
		t.Join(h1)
		t.Join(h2)
	}
	r := Explore(prog, Options{})
	if !r.Exhausted {
		t.Fatal("not exhausted")
	}
	if r.Bugs["deadlock"] == 0 {
		t.Fatal("exhaustive exploration missed the deadlock")
	}
	// The deadlock needs one preemption; PB(0) must miss it and PB(1)
	// must find it — the CHESS insight.
	if pb0 := Explore(prog, Options{BoundPreemptions: true}); pb0.Bugs["deadlock"] != 0 {
		t.Fatal("PB(0) found a deadlock that needs a preemption")
	}
	if pb1 := Explore(prog, Options{BoundPreemptions: true, PreemptionBound: 1}); pb1.Bugs["deadlock"] == 0 {
		t.Fatal("PB(1) missed the single-preemption deadlock")
	}
}

func TestBudgetCapsExploration(t *testing.T) {
	r := Explore(freeThreads(5, 5, 5), Options{MaxSchedules: 50})
	if r.Exhausted {
		t.Fatal("claimed exhaustion under a tiny budget")
	}
	if r.Schedules != 50 {
		t.Fatalf("schedules = %d", r.Schedules)
	}
}

// TestRandomizedSamplersStayInsideFeasibleSpace cross-checks the samplers
// against the exhaustive oracle: every interleaving a randomized algorithm
// produces must be feasible.
func TestRandomizedSamplersStayInsideFeasibleSpace(t *testing.T) {
	prog := freeThreads(3, 3)
	oracle := Explore(prog, Options{})
	if !oracle.Exhausted {
		t.Fatal("oracle not exhausted")
	}
	for _, name := range []string{"RW", "POS", "PCT-3", "URW", "SURW"} {
		alg, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 300; seed++ {
			r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}})
			if !oracle.Interleavings[r.InterleavingHash] {
				t.Fatalf("%s produced an infeasible interleaving (seed %d)", name, seed)
			}
		}
	}
}

// TestURWReachesWholeSpace checks completeness against the oracle: URW
// (with exact counts) covers every feasible interleaving.
func TestURWReachesWholeSpace(t *testing.T) {
	prog := freeThreads(3, 3)
	oracle := Explore(prog, Options{})
	info := sched.NewProgramInfo()
	info.AddThread("0", "")
	for i, n := range []int{3, 3} {
		l := info.AddThread("0."+string(rune('0'+i)), "0")
		info.Events[l] = n
		info.InterestingEvents[l] = n
		info.TotalEvents += n
	}
	alg := core.NewURW()
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 5000 && len(seen) < len(oracle.Interleavings); seed++ {
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		seen[r.InterleavingHash] = true
	}
	if len(seen) != len(oracle.Interleavings) {
		t.Fatalf("URW reached %d of %d feasible interleavings", len(seen), len(oracle.Interleavings))
	}
}

func TestKnuthEstimateMatchesExactCount(t *testing.T) {
	for _, counts := range [][]int{{3, 3}, {2, 2, 2}} {
		prog := freeThreads(counts...)
		exact, ok := count(prog, 100_000)
		if !ok {
			t.Fatal("exact count failed")
		}
		est := EstimateSchedules(prog, 4000, 9, Options{})
		// Knuth's estimator is unbiased; with 4000 samples on these tiny
		// trees it lands well within 25% of truth.
		if est < float64(exact)*0.75 || est > float64(exact)*1.25 {
			t.Fatalf("%v: estimate %.0f vs exact %d", counts, est, exact)
		}
	}
}

func TestKnuthEstimateDefaults(t *testing.T) {
	if est := EstimateSchedules(freeThreads(1, 1), 0, 1, Options{}); est < 1.5 || est > 2.5 {
		t.Fatalf("estimate with default samples = %.2f, want ~2", est)
	}
}
