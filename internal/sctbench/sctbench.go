// Package sctbench provides Go models of the SCTBench and ConVul targets
// the paper evaluates (Tables 1 and 4). Each model preserves the original's
// thread structure, synchronization idiom, and bug window — the properties
// the scheduling algorithms actually interact with — while expressing the
// bug as an assertion over this library's shared-state API. Memory
// corruption bugs (the ConVul CVEs) are modeled as state-machine violations
// asserted at the corrupting access, as in the curated versions used by
// Period and the paper.
package sctbench

import (
	"sync"

	"surw/internal/runner"
	"surw/internal/sched"
)

// Targets returns the benchmark suite in Table 4's row order.
func Targets() []runner.Target {
	return []runner.Target{
		Twostage(1), Twostage(10), Twostage(25), Twostage(50),
		Reorder(2, 1), Reorder(3, 1), Reorder(4, 1), Reorder(9, 1),
		Reorder(10, 10), Reorder(25, 25), Reorder(99, 1),
		Stack(), Deadlock01(), TokenRing(), Lazy01(),
		BluetoothDriver(), Account(), WrongLock(2), WrongLock(3),
		StringBuffer(),
		IWSQ(), IWSQWithState(), SWSQ(), WSQ(),
		BBuf(), BoundedBuffer(), QSortMT(),
		RADBenchBug4(), RADBenchBug5(), RADBenchBug6(),
		SafeStack(),
		CVE20131792(), CVE20161972(), CVE20161973(),
		CVE20167911(), CVE20169806(), CVE201715265(), CVE20176346(),
	}
}

// registry is every target's name in Names order and the index ByName
// answers from, built on first use: a fleet worker resolves a name per
// lease, and a Target resolved twice must be the same value for a warm
// sched.Pool to recognise its program.
var registry = sync.OnceValues(func() ([]string, map[string]runner.Target) {
	var names []string
	byName := make(map[string]runner.Target)
	for _, family := range [][]runner.Target{Targets(), TrivialTargets(), CoverageTargets(), WorkerPoolTargets()} {
		for _, t := range family {
			names = append(names, t.Name)
			if _, dup := byName[t.Name]; !dup { // first match wins
				byName[t.Name] = t
			}
		}
	}
	return names, byName
})

// ByName returns the target with the given name — from the Table 4 rows,
// the trivial set, the coverage probes, or the surwsync worker-pool
// family — or ok=false.
func ByName(name string) (runner.Target, bool) {
	_, byName := registry()
	t, ok := byName[name]
	return t, ok
}

// Names lists all target names: the Table 4 rows in order, then the
// trivial set, then the coverage probes, then the surwsync worker-pool
// family.
func Names() []string {
	names, _ := registry()
	return append([]string(nil), names...)
}

// spawnN starts n copies of body and returns their handles. Each creation
// costs the main thread two bookkeeping events, as the instrumented
// pthread_create path does in the paper's runtime: threads created early
// get scheduling opportunities while later siblings are still being
// created, which is exactly what makes the reorder/twostage checkers hard
// for the baselines to schedule first.
func spawnN(t *sched.Thread, n int, body func(*sched.Thread)) []*sched.Handle {
	ctl := t.NewVar("", 0)
	hs := make([]*sched.Handle, n)
	for i := range hs {
		hs[i] = t.Go(body)
		ctl.Add(t, 1)
		ctl.Add(t, 1)
	}
	return hs
}
