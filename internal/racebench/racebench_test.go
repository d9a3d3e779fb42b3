package racebench

import (
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sched"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 15 {
		t.Fatalf("suite has %d bases, want 15", len(suite))
	}
	seen := map[string]bool{}
	partials := 0
	for _, b := range suite {
		if seen[b.Name] {
			t.Fatalf("duplicate base %s", b.Name)
		}
		seen[b.Name] = true
		if b.Partial {
			partials++
		}
		if len(b.Bugs()) != NumBugs {
			t.Fatalf("%s: %d bugs", b.Name, len(b.Bugs()))
		}
		for _, id := range b.Bugs() {
			if !strings.HasPrefix(id, b.Name+"-bug") {
				t.Fatalf("bad bug id %q", id)
			}
		}
	}
	if partials != 3 {
		t.Fatalf("%d partial targets, want 3 (cholesky, fluidanimate, raytrace2)", partials)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("x", 4, 10, 3, 6, "data", false, 42)
	b := Generate("x", 4, 10, 3, 6, "data", false, 42)
	for i := range a.bugs {
		if a.bugs[i] != b.bugs[i] {
			t.Fatalf("bug %d differs across generations", i)
		}
	}
	for k, v := range a.actions {
		w := b.actions[k]
		if len(v) != len(w) {
			t.Fatalf("actions at %v differ", k)
		}
		for i := range v {
			if v[i] != w[i] {
				t.Fatalf("action %v[%d] differs", k, i)
			}
		}
	}
	c := Generate("x", 4, 10, 3, 6, "data", false, 43)
	if equalBugs(a.bugs, c.bugs) {
		t.Fatal("different seeds produced identical bugs")
	}
}

func equalBugs(a, b []bug) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBaseRunsAndFindsBugs(t *testing.T) {
	b := Suite()[0] // blackscholes
	found := map[string]bool{}
	truncated := 0
	for seed := int64(0); seed < 400; seed++ {
		res := sched.Run(b.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed, MaxSteps: 500_000}})
		if res.Truncated {
			truncated++
		}
		if res.Buggy() {
			if res.Failure.Kind == sched.FailPanic {
				t.Fatalf("model panic: %v", res.Failure)
			}
			found[res.BugID()] = true
		}
	}
	if truncated > 0 {
		t.Fatalf("%d truncated schedules", truncated)
	}
	if len(found) < 5 {
		t.Fatalf("RW found only %d distinct bugs in 400 schedules", len(found))
	}
	if len(found) > 90 {
		t.Fatalf("RW found %d bugs in 400 schedules; injection too easy", len(found))
	}
}

func TestTaskPatternVariesEventCounts(t *testing.T) {
	b := Generate("tasky", 4, 12, 3, 6, "task", false, 7)
	steps := map[int]bool{}
	for seed := int64(0); seed < 30; seed++ {
		res := sched.Run(b.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed, MaxSteps: 500_000}})
		if !res.Buggy() {
			steps[res.Steps] = true
		}
	}
	if len(steps) < 2 {
		t.Fatal("task pattern produced schedule-independent event counts")
	}
}

func TestChainBugsRequireOrder(t *testing.T) {
	// Chain bugs must not fire under the deterministic leftmost schedule
	// (steps on different threads can't all line up).
	for _, b := range Suite()[:3] {
		res := sched.Run(b.Prog(), nil, sched.Options{Base: sched.Base{MaxSteps: 500_000}})
		if res.Buggy() && b.bugs[bugIndex(b, res.BugID())].kind == Chain {
			t.Logf("%s: chain bug %s fired even leftmost", b.Name, res.BugID())
		}
	}
}

func bugIndex(b *Base, id string) int {
	for i, bg := range b.bugs {
		if bg.id == id {
			return i
		}
	}
	return 0
}

func TestDistinctBugsMetricViaRunner(t *testing.T) {
	b := Suite()[0]
	res, err := runner.RunTarget(b.Target(), "POS", runner.Config{
		Sessions: 1, Limit: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := res.DistinctBugs()
	if len(distinct) == 0 {
		t.Fatal("no bugs found by POS in 300 iterations")
	}
	for id := range distinct {
		if !strings.HasPrefix(id, "blackscholes-bug") {
			t.Fatalf("foreign bug id %q", id)
		}
	}
}

func TestSURWRegionSelectionWorks(t *testing.T) {
	b := Suite()[1]
	res, err := runner.RunTarget(b.Target(), "SURW", runner.Config{
		Sessions: 1, Limit: 200, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Schedules != 200 {
		t.Fatal("session did not complete")
	}
	if len(res.DistinctBugs()) == 0 {
		t.Fatal("SURW found nothing in 200 iterations")
	}
}

func TestBugKindString(t *testing.T) {
	for _, k := range []BugKind{AtomicityViolation, OrderViolation, Chain, LockInversion} {
		if k.String() == "unknown" {
			t.Fatal("missing kind name")
		}
	}
	if BugKind(99).String() != "unknown" {
		t.Fatal("unknown kind misnamed")
	}
}

// TestSuiteIsGeneratedOnce: the suite is generated once — resolving a
// target is a lookup, not fifteen Generate runs, and a warm pool is handed
// the program it already knows.
func TestSuiteIsGeneratedOnce(t *testing.T) {
	again := Suite()
	for i, b := range Suite() {
		if b != again[i] {
			t.Fatalf("Suite() built %s a second time", b.Name)
		}
	}
}
