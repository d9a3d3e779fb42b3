package replay

import (
	"fmt"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/sched"
)

// torn is a program whose assert fails when the two writes of the setter
// are split by the checker.
func torn(t *sched.Thread) {
	a := t.NewVar("a", 0)
	b := t.NewVar("b", 0)
	set := t.Go(func(w *sched.Thread) {
		a.Store(w, 1)
		b.Store(w, 1)
	})
	chk := t.Go(func(w *sched.Thread) {
		av, bv := a.Load(w), b.Load(w)
		w.Assert(!(av == 1 && bv == 0), "torn")
	})
	t.Join(set)
	t.Join(chk)
}

// findFailure records schedules until one fails.
func findFailure(t *testing.T) (Recording, *sched.Result) {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		res, rec := Record(torn, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
		if res.Buggy() {
			return rec, res
		}
	}
	t.Fatal("no failing schedule found")
	return Recording{}, nil
}

func TestRecordReplayRoundTrip(t *testing.T) {
	rec, orig := findFailure(t)
	res := Replay(torn, rec, sched.Options{})
	if !res.Buggy() || res.Failure.BugID != orig.Failure.BugID {
		t.Fatalf("replay diverged: %+v vs %+v", res.Failure, orig.Failure)
	}
	if res.InterleavingHash != orig.InterleavingHash {
		t.Fatal("replayed interleaving differs from the recorded one")
	}
}

func TestRecordingsOfCleanRunsReplayCleanly(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		res, rec := Record(torn, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
		if res.Buggy() {
			continue
		}
		again := Replay(torn, rec, sched.Options{})
		if again.InterleavingHash != res.InterleavingHash {
			t.Fatalf("seed %d: clean replay diverged", seed)
		}
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	for _, rec := range []Recording{
		{},
		{Choices: []int{0}},
		{Choices: []int{3, 0, 2, 1, 1}},
	} {
		s := rec.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if len(back.Choices) != len(rec.Choices) {
			t.Fatalf("%q: round trip lost entries", s)
		}
		for i := range rec.Choices {
			if back.Choices[i] != rec.Choices[i] {
				t.Fatalf("%q: entry %d differs", s, i)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "2:1", "1:x", "1:-2", "nope"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestMinimizePreservesBug(t *testing.T) {
	rec, orig := findFailure(t)
	min, attempts := Minimize(torn, rec, orig.Failure.BugID, sched.Options{}, 0)
	if attempts == 0 {
		t.Fatal("no minimization attempts made")
	}
	res := Replay(torn, min, sched.Options{})
	if !res.Buggy() || res.Failure.BugID != orig.Failure.BugID {
		t.Fatalf("minimized recording lost the bug: %+v", res.Failure)
	}
	if len(min.Choices) > len(rec.Choices) {
		t.Fatal("minimization grew the recording")
	}
}

func TestMinimizeShrinksNoisyRecording(t *testing.T) {
	// A noisy program: the failing schedule found by RW carries many
	// irrelevant choices that minimization should flatten.
	noisy := func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		noise := t.NewVar("noise", 0)
		set := t.Go(func(w *sched.Thread) {
			for i := 0; i < 5; i++ {
				noise.Add(w, 1)
			}
			x.Store(w, 1)
			x.Store(w, 2)
		})
		chk := t.Go(func(w *sched.Thread) {
			for i := 0; i < 5; i++ {
				noise.Add(w, 1)
			}
			w.Assert(x.Load(w) != 1, "mid-write")
		})
		t.Join(set)
		t.Join(chk)
	}
	var rec Recording
	var bugID string
	found := false
	for seed := int64(0); seed < 2000 && !found; seed++ {
		res, r := Record(noisy, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
		if res.Buggy() {
			rec, bugID, found = r, res.Failure.BugID, true
		}
	}
	if !found {
		t.Fatal("bug not found")
	}
	min, _ := Minimize(noisy, rec, bugID, sched.Options{}, 0)
	nonZero := 0
	for _, c := range min.Choices {
		if c != 0 {
			nonZero++
		}
	}
	origNonZero := 0
	for _, c := range rec.Choices {
		if c != 0 {
			origNonZero++
		}
	}
	if nonZero > origNonZero {
		t.Fatalf("minimization increased non-default choices: %d > %d", nonZero, origNonZero)
	}
	if !strings.Contains(min.String(), ":") {
		t.Fatal("serialization broken")
	}
}

func TestRecorderLeavesSURWUnperturbed(t *testing.T) {
	// SURW recorded must behave identically to bare SURW (the recorder only
	// watches, as a tracer), so equal seeds give equal interleavings.
	info := sched.NewProgramInfo()
	info.AddThread("0", "")
	for i := 0; i < 2; i++ {
		l := info.AddThread("0."+string(rune('0'+i)), "0")
		info.Events[l] = 3
		info.InterestingEvents[l] = 3
	}
	info.TotalEvents = 6
	prog := func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		h1 := t.Go(func(w *sched.Thread) { x.Add(w, 1); x.Add(w, 1); x.Add(w, 1) })
		h2 := t.Go(func(w *sched.Thread) { x.Add(w, 1); x.Add(w, 1); x.Add(w, 1) })
		t.Join(h1)
		t.Join(h2)
	}
	for seed := int64(0); seed < 20; seed++ {
		bare := sched.Run(prog, core.NewSURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		wrapped, _ := Record(prog, core.NewSURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if bare.InterleavingHash != wrapped.InterleavingHash {
			t.Fatalf("seed %d: recorder perturbed SURW", seed)
		}
	}
}

// chanProg exercises channel events (cond waits, wakelocks, signals behind
// the Chan implementation): two producers race into a buffered channel and
// one consumer drains it.
func chanProg(t *sched.Thread) {
	ch := sched.NewChan[int64](t, "ch", 2)
	sum := t.NewVar("sum", 0)
	p1 := t.Go(func(w *sched.Thread) { ch.Send(w, 1); ch.Send(w, 2) })
	p2 := t.Go(func(w *sched.Thread) { ch.Send(w, 10) })
	c := t.Go(func(w *sched.Thread) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(w)
			w.Assert(ok, "chan-closed-early")
			sum.Add(w, v)
		}
	})
	t.JoinAll(p1, p2, c)
	t.SetBehavior(fmt.Sprintf("%d", sum.Peek()))
}

// wgProg exercises waitgroup events: workers Done concurrently while a
// waiter blocks on the counter.
func wgProg(t *sched.Thread) {
	wg := t.NewWaitGroup("wg")
	x := t.NewVar("x", 0)
	wg.Add(t, 2)
	w1 := t.Go(func(w *sched.Thread) { x.Add(w, 1); wg.Done(w) })
	w2 := t.Go(func(w *sched.Thread) { x.Add(w, 2); wg.Done(w) })
	waiter := t.Go(func(w *sched.Thread) {
		wg.Wait(w)
		w.Assert(x.Load(w) == 3, "wg-early")
	})
	t.JoinAll(w1, w2, waiter)
}

// semProg exercises semaphore events: producers V, consumers P with
// blocking.
func semProg(t *sched.Thread) {
	sem := t.NewSemaphore("sem", 0)
	x := t.NewVar("x", 0)
	p := t.Go(func(w *sched.Thread) { x.Add(w, 1); sem.V(w); x.Add(w, 1); sem.V(w) })
	c := t.Go(func(w *sched.Thread) { sem.P(w); sem.P(w); x.Add(w, 10) })
	t.JoinAll(p, c)
	t.SetBehavior(fmt.Sprintf("%d", x.Peek()))
}

// TestSyncObjectRoundTrips closes the coverage gap on synchronization
// events: recordings over channel, waitgroup, and semaphore programs must
// replay bit-exactly (hash and behaviour), both via the lenient and the
// strict player.
func TestSyncObjectRoundTrips(t *testing.T) {
	progs := map[string]func(*sched.Thread){
		"chan": chanProg, "waitgroup": wgProg, "semaphore": semProg,
	}
	for name, prog := range progs {
		for seed := int64(0); seed < 30; seed++ {
			res, rec := Record(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
			if res.Buggy() {
				t.Fatalf("%s seed %d: spurious failure %v", name, seed, res.Failure)
			}
			again := Replay(prog, rec, sched.Options{})
			if again.InterleavingHash != res.InterleavingHash || again.Behavior != res.Behavior {
				t.Fatalf("%s seed %d: replay diverged", name, seed)
			}
			strict, err := ReplayStrict(prog, rec, sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: strict replay rejected its own recording: %v", name, seed, err)
			}
			if strict.InterleavingHash != res.InterleavingHash {
				t.Fatalf("%s seed %d: strict replay diverged", name, seed)
			}
		}
	}
}

// TestReplayStrictTruncatedRecording: a recording cut short must be
// diagnosed, with the decision index in the message.
func TestReplayStrictTruncatedRecording(t *testing.T) {
	_, rec := Record(chanProg, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 3}})
	if len(rec.Choices) < 4 {
		t.Skip("recording too short to truncate meaningfully")
	}
	cut := Recording{Choices: rec.Choices[:2]}
	res, err := ReplayStrict(chanProg, cut, sched.Options{})
	if err == nil {
		t.Fatal("truncated recording not diagnosed")
	}
	if !strings.Contains(err.Error(), "truncated") || !strings.Contains(err.Error(), "decision 2") {
		t.Fatalf("unactionable truncation error: %v", err)
	}
	if res == nil {
		t.Fatal("strict replay must still return the fallback result")
	}
}

// TestReplayStrictDivergentRecording: an out-of-range recorded choice must
// be diagnosed as a divergence (the lenient player silently picks 0).
func TestReplayStrictDivergentRecording(t *testing.T) {
	_, rec := Record(semProg, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 1}})
	bad := Recording{Choices: append([]int(nil), rec.Choices...)}
	bad.Choices[0] = 97 // no schedule ever has 98 enabled threads here
	_, err := ReplayStrict(semProg, bad, sched.Options{})
	if err == nil {
		t.Fatal("divergent recording not diagnosed")
	}
	if !strings.Contains(err.Error(), "divergence at decision 0") ||
		!strings.Contains(err.Error(), "recorded choice 97") {
		t.Fatalf("unactionable divergence error: %v", err)
	}
}

// TestReplayStrictLeftoverChoices: a recording with more choices than the
// program consults (e.g. recorded on a longer program) is also a
// divergence.
func TestReplayStrictLeftoverChoices(t *testing.T) {
	_, rec := Record(wgProg, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 2}})
	long := Recording{Choices: append(append([]int(nil), rec.Choices...), 0, 0, 0, 0, 0, 0, 0, 0)}
	_, err := ReplayStrict(wgProg, long, sched.Options{})
	if err == nil {
		t.Fatal("leftover recorded choices not diagnosed")
	}
	if !strings.Contains(err.Error(), "consulted only") {
		t.Fatalf("unactionable leftover error: %v", err)
	}
}
