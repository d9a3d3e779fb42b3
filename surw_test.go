package surw

import (
	"math"
	"strings"
	"testing"
)

func racyProg(t *Thread) {
	c := t.NewVar("c", 0)
	h1 := t.Go(func(w *Thread) { c.Store(w, c.Load(w)+1) })
	h2 := t.Go(func(w *Thread) { c.Store(w, c.Load(w)+1) })
	t.Join(h1)
	t.Join(h2)
	t.Assert(c.Peek() == 2, "lost-update")
}

func cleanProg(t *Thread) {
	c := t.NewVar("c", 0)
	h := t.Go(func(w *Thread) { c.Add(w, 1) })
	c.Add(t, 1)
	t.Join(h)
}

func TestTestFindsBug(t *testing.T) {
	rep, err := Test(racyProg, Options{Schedules: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found() {
		t.Fatal("SURW did not find the lost update")
	}
	if rep.Failure.BugID != "lost-update" || rep.Schedule < 2 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "lost-update") {
		t.Fatalf("summary = %q", rep.String())
	}
}

func TestTestCleanProgram(t *testing.T) {
	rep, err := Test(cleanProg, Options{Schedules: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found() {
		t.Fatalf("false positive: %+v", rep.Failure)
	}
	if rep.Schedules != 100 {
		t.Fatalf("ran %d schedules", rep.Schedules)
	}
	if !strings.Contains(rep.String(), "no bug") {
		t.Fatalf("summary = %q", rep.String())
	}
}

func TestReplayReproduces(t *testing.T) {
	opts := Options{Base: Base{Seed: 3}, Schedules: 500}
	rep, err := Test(racyProg, opts)
	if err != nil || !rep.Found() {
		t.Fatalf("setup failed: %v %+v", err, rep)
	}
	res, err := Replay(racyProg, rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() || res.Failure.BugID != rep.Failure.BugID {
		t.Fatalf("replay diverged: %+v", res.Failure)
	}
	if len(res.Trace) == 0 {
		t.Fatal("replay did not record a trace")
	}
}

func TestTestWithEveryAlgorithm(t *testing.T) {
	for _, alg := range []string{"SURW", "URW", "RW", "POS", "PCT-3", "N-U", "N-S"} {
		rep, err := Test(racyProg, Options{Schedules: 400, Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !rep.Found() {
			t.Fatalf("%s missed an easy lost update in 400 schedules", alg)
		}
	}
}

func TestTestUnknownAlgorithm(t *testing.T) {
	if _, err := Test(cleanProg, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Replay(cleanProg, &Report{}, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("expected replay error")
	}
}

func TestRunLeftmostDeterministic(t *testing.T) {
	a := Run(cleanProg, nil, RunOptions{})
	b := Run(cleanProg, nil, RunOptions{})
	if a.InterleavingHash != b.InterleavingHash {
		t.Fatal("leftmost schedule nondeterministic")
	}
}

func TestNewAlgorithmNames(t *testing.T) {
	for _, n := range []string{"SURW", "URW", "RW", "POS", "PCT-7", "N-U", "N-S"} {
		if _, err := NewAlgorithm(n); err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", n, err)
		}
	}
}

func TestEstimate(t *testing.T) {
	// One cluster of two 1-event threads: 2 interleavings, bound 1/2.
	if got := Estimate([]int{1, 1}, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Estimate = %v", got)
	}
	// Two clusters: 1 - (1/2)^2 = 0.75.
	if got := Estimate([]int{1, 1}, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Estimate = %v", got)
	}
	// Multinomial(5,5) = 252.
	if got := Estimate([]int{5, 5}, 1); math.Abs(got-1.0/252) > 1e-9 {
		t.Fatalf("Estimate = %v", got)
	}
	if Estimate([]int{-1}, 1) != 0 {
		t.Fatal("negative counts must yield 0")
	}
}

func TestExploreCoverageAndEntropy(t *testing.T) {
	prog := func(th *Thread) {
		x := th.NewVar("x", 1)
		append01 := func(bit int64) func(*Thread) {
			return func(w *Thread) {
				for i := 0; i < 3; i++ {
					x.Update(w, func(v int64) int64 { return v<<1 | bit })
				}
			}
		}
		h1, h2 := th.Go(append01(0)), th.Go(append01(1))
		th.Join(h1)
		th.Join(h2)
		th.SetBehavior(string(rune('A' + x.Peek()%26)))
	}
	ex, err := Explore(prog, Options{Base: Base{Seed: 2}, Schedules: 600, Algorithm: "URW"})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schedules != 600 || len(ex.Interleavings) < 10 || len(ex.Behaviors) < 5 {
		t.Fatalf("exploration too shallow: %d ilv, %d beh", len(ex.Interleavings), len(ex.Behaviors))
	}
	if ex.InterleavingEntropy() <= 0 || ex.BehaviorEntropy() <= 0 {
		t.Fatal("entropies must be positive")
	}
	if len(ex.Failures) != 0 {
		t.Fatalf("clean program reported failures: %v", ex.Failures)
	}
	if _, err := Explore(prog, Options{Algorithm: "bogus"}); err == nil {
		t.Fatal("expected error for bogus algorithm")
	}
}

func TestExploreWithTraceFilter(t *testing.T) {
	prog := func(th *Thread) {
		x := th.NewVar("x", 0)
		y := th.NewVar("y", 0)
		h := th.Go(func(w *Thread) { x.Add(w, 1); y.Add(w, 1) })
		x.Add(th, 1)
		y.Add(th, 1)
		th.Join(h)
	}
	onlyX := func(ev Event) bool { return ev.ObjHash == HashName("x") }
	filtered, err := Explore(prog, Options{Base: Base{Seed: 2}, Schedules: 300, Algorithm: "RW", TraceFilter: onlyX})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Explore(prog, Options{Base: Base{Seed: 2}, Schedules: 300, Algorithm: "RW"})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Interleavings) >= len(full.Interleavings) {
		t.Fatalf("filter did not shrink the space: %d vs %d",
			len(filtered.Interleavings), len(full.Interleavings))
	}
}

func TestCollectFacade(t *testing.T) {
	prof, err := Collect(racyProg, ProfileOptions{Base: Base{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Info.NumThreads() != 3 {
		t.Fatalf("threads = %d", prof.Info.NumThreads())
	}
	found := false
	for _, o := range prof.Objs {
		if o.Name == "c" && o.Threads >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("shared var c missing from census")
	}
}

func TestExploreCountsFailures(t *testing.T) {
	ex, err := Explore(racyProg, Options{Base: Base{Seed: 1}, Schedules: 300, Algorithm: "RW"})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Failures["lost-update"] == 0 {
		t.Fatal("failures not tallied")
	}
}

func TestRecordMinimizeReplayFacade(t *testing.T) {
	var rec Recording
	var bugID string
	found := false
	for seed := int64(0); seed < 500 && !found; seed++ {
		res, r := RecordRun(racyProg, NewRandomWalk(), RunOptions{Base: Base{Seed: seed}})
		if res.Buggy() {
			rec, bugID, found = r, res.BugID(), true
		}
	}
	if !found {
		t.Fatal("no failing schedule recorded")
	}
	min, attempts := MinimizeRecording(racyProg, rec, bugID, RunOptions{}, 0)
	if attempts == 0 {
		t.Fatal("minimization did nothing")
	}
	res := ReplayRecording(racyProg, min, RunOptions{RecordTrace: true})
	if !res.Buggy() || res.BugID() != bugID {
		t.Fatalf("minimized replay lost the bug: %+v", res.Failure)
	}
	// Serialization round-trips through the string form.
	back, err := ParseRecording(min.String())
	if err != nil {
		t.Fatal(err)
	}
	if again := ReplayRecording(racyProg, back, RunOptions{}); !again.Buggy() {
		t.Fatal("parsed recording lost the bug")
	}
}

func TestChannelsThroughFacade(t *testing.T) {
	var sum int
	res := Run(func(th *Thread) {
		ch := NewChan[int](th, "ch", 2)
		prod := th.Go(func(w *Thread) {
			ch.Send(w, 1)
			ch.Send(w, 2)
			ch.Close(w)
		})
		for {
			v, ok := ch.Recv(th)
			if !ok {
				break
			}
			sum += v
		}
		th.Join(prod)
	}, NewRandomWalk(), RunOptions{Base: Base{Seed: 4}})
	if res.Buggy() || sum != 3 {
		t.Fatalf("failure=%v sum=%d", res.Failure, sum)
	}
}

func TestNewRefThroughFacade(t *testing.T) {
	var got int
	res := Run(func(th *Thread) {
		r := NewRef(th, "list", []int{1})
		h := th.Go(func(w *Thread) {
			r.Update(w, func(xs []int) []int { return append(xs, 2) })
		})
		th.Join(h)
		got = len(r.Peek())
	}, nil, RunOptions{})
	if got != 2 {
		t.Fatalf("ref length = %d", got)
	}
	if res.Buggy() {
		t.Fatal(res.Failure)
	}
}
