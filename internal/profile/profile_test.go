package profile

import (
	"math/rand"
	"reflect"
	"testing"

	"surw/internal/core"
	"surw/internal/sched"
)

// prog is a two-worker program with one hot shared var, one cold shared
// var, one thread-local var, and a mutex.
func prog(t *sched.Thread) {
	hot := t.NewVar("hot", 0)
	cold := t.NewVar("cold", 0)
	m := t.NewMutex("mu")
	w1 := t.Go(func(w *sched.Thread) {
		local := w.NewVar("local", 0)
		for i := 0; i < 10; i++ {
			hot.Add(w, 1)
		}
		local.Store(w, 1)
		m.Lock(w)
		cold.Add(w, 1)
		m.Unlock(w)
	})
	w2 := t.Go(func(w *sched.Thread) {
		for i := 0; i < 10; i++ {
			hot.Add(w, 1)
		}
		m.Lock(w)
		cold.Add(w, 1)
		m.Unlock(w)
	})
	t.Join(w1)
	t.Join(w2)
}

func collect(t *testing.T) *Profile {
	t.Helper()
	p, err := Collect(prog, Options{Base: sched.Base{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCollectCounts(t *testing.T) {
	p := collect(t)
	if n := p.Info.NumThreads(); n != 3 {
		t.Fatalf("threads = %d, want 3", n)
	}
	l1, l2 := p.Info.LID("0.0"), p.Info.LID("0.1")
	if l1 < 0 || l2 < 0 {
		t.Fatal("worker paths missing")
	}
	// Worker 1: 10 hot + 1 local + lock + cold + unlock = 14 events.
	if p.Info.Events[l1] != 14 {
		t.Fatalf("worker1 events = %d, want 14", p.Info.Events[l1])
	}
	if p.Info.Events[l2] != 13 {
		t.Fatalf("worker2 events = %d, want 13", p.Info.Events[l2])
	}
	root := p.Info.LID("0")
	if p.Info.Events[root] != 2 {
		t.Fatalf("root events = %d, want 2 joins", p.Info.Events[root])
	}
	if p.Info.TotalEvents != 14+13+2 {
		t.Fatalf("total = %d", p.Info.TotalEvents)
	}
}

func TestCensusObjects(t *testing.T) {
	p := collect(t)
	stats := map[string]ObjStat{}
	for _, o := range p.Objs {
		stats[o.Name] = o
	}
	if o := stats["hot"]; o.Accesses != 20 || o.Threads != 2 || o.Writes != 20 {
		t.Fatalf("hot stats wrong: %+v", o)
	}
	if o := stats["cold"]; o.Accesses != 2 || o.Threads != 2 {
		t.Fatalf("cold stats wrong: %+v", o)
	}
	if o := stats["local"]; o.Threads != 1 {
		t.Fatalf("local stats wrong: %+v", o)
	}
	if o := stats["mu"]; o.Kind != sched.ObjMutex || o.Accesses != 4 {
		t.Fatalf("mutex stats wrong: %+v", o)
	}
}

func TestSelectSingleVarWeighted(t *testing.T) {
	p := collect(t)
	picks := map[string]int{}
	for seed := int64(0); seed < 2000; seed++ {
		sel, ok := p.SelectSingleVar(rand.New(rand.NewSource(seed)))
		if !ok {
			t.Fatal("no shared var found")
		}
		if len(sel.Objects) != 1 {
			t.Fatalf("objects = %v", sel.Objects)
		}
		picks[sel.Objects[0]]++
	}
	if picks["local"] > 0 {
		t.Fatal("thread-local var selected as shared")
	}
	// hot has 20 of the 22 shared accesses: expect ~91% of picks.
	if picks["hot"] < 1600 {
		t.Fatalf("hot picked only %d/2000 times", picks["hot"])
	}
	if picks["cold"] == 0 {
		t.Fatal("cold never picked despite nonzero weight")
	}
}

func TestInstantiateCounts(t *testing.T) {
	p := collect(t)
	sel := Selection{Desc: "hot", Objects: []string{"hot"}, Interesting: AccessTo("hot")}
	info := p.Instantiate(sel)
	l1, l2, root := info.LID("0.0"), info.LID("0.1"), info.LID("0")
	if info.InterestingEvents[l1] != 10 || info.InterestingEvents[l2] != 10 {
		t.Fatalf("interesting counts = %v", info.InterestingEvents)
	}
	if info.InterestingEvents[root] != 0 {
		t.Fatal("root should have no interesting events")
	}
	if info.Interesting == nil || info.DeltaDesc != "hot" {
		t.Fatal("selection not attached")
	}
	// The source profile must be untouched.
	if p.Info.Interesting != nil {
		t.Fatal("Instantiate mutated the profile")
	}
}

func TestInstantiateAll(t *testing.T) {
	p := collect(t)
	info := p.Instantiate(p.SelectAll())
	for i := range info.Events {
		if info.InterestingEvents[i] != info.Events[i] {
			t.Fatal("Δ=Γ counts must equal total counts")
		}
	}
	if info.Interesting != nil {
		t.Fatal("Δ=Γ must use a nil predicate")
	}
}

// Every info instantiated from a profile shares the profile's spine and
// owns only its Δ-counts, on the contract that nothing writes to an info
// (sched.Algorithm.Begin). Enforced here: two instantiations do not share
// their Δ-counts, and a schedule run with one — under the algorithm that
// consumes the counts — leaves the other's and the profile's as they were.
func TestInstantiateSharesSpineNotCounts(t *testing.T) {
	p := collect(t)
	hot := p.Instantiate(Selection{Desc: "hot", Interesting: AccessTo("hot")})
	cold := p.Instantiate(Selection{Desc: "cold", Interesting: AccessTo("cold")})
	all := p.Instantiate(p.SelectAll())
	for _, pair := range [][2]*sched.ProgramInfo{{hot, cold}, {hot, all}, {cold, all}, {hot, p.Info}, {all, p.Info}} {
		if &pair[0].InterestingEvents[0] == &pair[1].InterestingEvents[0] {
			t.Fatalf("%q and %q share one InterestingEvents array", pair[0].DeltaDesc, pair[1].DeltaDesc)
		}
	}
	if &hot.Events[0] != &p.Info.Events[0] || &hot.Paths[0] != &p.Info.Paths[0] {
		t.Fatal("Instantiate copied the profile's spine")
	}
	snapshot := func() [4][]int {
		return [4][]int{
			append([]int(nil), p.Info.Events...), append([]int(nil), hot.InterestingEvents...),
			append([]int(nil), cold.InterestingEvents...), append([]int(nil), all.InterestingEvents...),
		}
	}
	before := snapshot()
	for seed := int64(0); seed < 20; seed++ {
		for _, alg := range []sched.Algorithm{core.NewSURW(), core.NewURW()} {
			if res := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}, Info: hot}); res.Buggy() {
				t.Fatalf("seed %d: %v", seed, res.Failure)
			}
		}
	}
	if after := snapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("running schedules with one info wrote to shared counts:\nbefore %v\nafter  %v", before, after)
	}
}

// Steady state of the per-schedule Δ draw: once a variable has been picked,
// picking it again and asking for its info allocates nothing; a selection
// the profile cannot memoise (a caller's own predicate) costs the info and
// its Δ-counts, and no copy of the spine.
func TestSelectionAllocations(t *testing.T) {
	p := collect(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ { // warm-up: every shared variable drawn at least once
		sel, _ := p.SelectSingleVar(rng)
		p.Instantiate(sel)
	}
	if n := testing.AllocsPerRun(500, func() {
		sel, _ := p.SelectSingleVar(rng)
		sink = p.Instantiate(sel)
	}); n != 0 {
		t.Errorf("SelectSingleVar + Instantiate of an already-drawn variable: %v allocs, want 0", n)
	}
	custom := SelectCustom("hot", AccessTo("hot"))
	want := 2.0
	if raceDetector {
		want++
	}
	if n := testing.AllocsPerRun(500, func() { sink = p.Instantiate(custom) }); n > want {
		t.Errorf("Instantiate of a custom predicate: %v allocs, want <= %v", n, want)
	}
}

var sink *sched.ProgramInfo

// SelectSingleVar memoises; the memo must not change what it answers: the
// same draw, the same description, predicate and Δ-counts as building the
// selection from scratch, on a first pick and on a repeat.
func TestSelectSingleVarMemoIsTransparent(t *testing.T) {
	p := collect(t)
	for seed := int64(0); seed < 50; seed++ {
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sel, ok := p.SelectSingleVar(rng)
		if !ok {
			t.Fatal("no shared var found")
		}
		// The draw is one Intn over the shared accesses (20 hot, then 2
		// cold, in creation order) and nothing else.
		name := "hot"
		if ref.Intn(22) >= 20 {
			name = "cold"
		}
		if sel.Objects[0] != name || rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: picked %v, one Intn(22) picks %s (or the stream was drawn from more than once)", seed, sel.Objects, name)
		}
		want := p.Instantiate(Selection{Desc: sel.Desc, Interesting: AccessTo(sel.Objects[0])})
		got := p.Instantiate(sel)
		if got.DeltaDesc != want.DeltaDesc || !reflect.DeepEqual(got.InterestingEvents, want.InterestingEvents) {
			t.Fatalf("seed %d: memoised info for %v: %q %v, from scratch: %q %v", seed, sel.Objects,
				got.DeltaDesc, got.InterestingEvents, want.DeltaDesc, want.InterestingEvents)
		}
		// A selection memoised on one profile is just a selection to another.
		if other := collect(t); other.Instantiate(sel) == got {
			t.Fatal("another profile returned this profile's memoised info")
		}
	}
}

func TestSelectLockEntrances(t *testing.T) {
	p := collect(t)
	sel, ok := p.SelectLockEntrances()
	if !ok {
		t.Fatal("no locks found")
	}
	lockEv := sched.Event{Kind: sched.OpLock, ObjHash: sched.HashName("mu")}
	readEv := sched.Event{Kind: sched.OpRead, ObjHash: sched.HashName("hot")}
	if !sel.Interesting(lockEv) || sel.Interesting(readEv) {
		t.Fatal("lock-entrance predicate wrong")
	}
	info := p.Instantiate(sel)
	l1 := info.LID("0.0")
	if info.InterestingEvents[l1] != 1 {
		t.Fatalf("worker1 lock count = %d, want 1", info.InterestingEvents[l1])
	}
}

func TestSelectRegion(t *testing.T) {
	p := collect(t)
	sel, ok := p.SelectRegion(rand.New(rand.NewSource(5)), 21)
	if !ok {
		t.Fatal("no region found")
	}
	if len(sel.Objects) < 2 {
		t.Fatalf("region too small for threshold: %v", sel.Objects)
	}
}

func TestSURWWithProfiledCounts(t *testing.T) {
	// End-to-end: profile, select hot var, run SURW; program is bug-free so
	// every schedule must pass.
	p := collect(t)
	info := p.Instantiate(Selection{Desc: "hot", Interesting: AccessTo("hot")})
	for seed := int64(0); seed < 30; seed++ {
		res := sched.Run(prog, core.NewSURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if res.Buggy() || res.Truncated {
			t.Fatalf("seed %d: %v truncated=%v", seed, res.Failure, res.Truncated)
		}
	}
}

func TestCollectAveragesRuns(t *testing.T) {
	p, err := Collect(prog, Options{Base: sched.Base{Seed: 9}, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The program is schedule-independent in event counts, so averages must
	// match a single run exactly.
	if p.Info.TotalEvents != 29 {
		t.Fatalf("averaged total = %d, want 29", p.Info.TotalEvents)
	}
}

func TestCollectTruncationError(t *testing.T) {
	spin := func(t *sched.Thread) {
		for {
			t.Yield()
		}
	}
	if _, err := Collect(spin, Options{Base: sched.Base{MaxSteps: 50}}); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestSelectionEmptyProfile(t *testing.T) {
	p, err := Collect(func(t *sched.Thread) {}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.SelectSingleVar(rand.New(rand.NewSource(1))); ok {
		t.Fatal("single-var selection on empty profile should fail")
	}
	if _, ok := p.SelectRegion(rand.New(rand.NewSource(1)), 10); ok {
		t.Fatal("region selection on empty profile should fail")
	}
	if _, ok := p.SelectLockEntrances(); ok {
		t.Fatal("lock selection on empty profile should fail")
	}
}

// regionProg creates three shared vars with creation order a, b, c and
// unequal access counts, so region selections have a meaningful order to
// grow through.
func regionProg(t *sched.Thread) {
	a := t.NewVar("a", 0)
	b := t.NewVar("b", 0)
	c := t.NewVar("c", 0)
	w1 := t.Go(func(w *sched.Thread) {
		for i := 0; i < 4; i++ {
			a.Add(w, 1)
		}
		b.Add(w, 1)
		c.Add(w, 1)
	})
	w2 := t.Go(func(w *sched.Thread) {
		for i := 0; i < 4; i++ {
			a.Add(w, 1)
		}
		b.Add(w, 1)
		c.Add(w, 1)
	})
	t.Join(w1)
	t.Join(w2)
}

// TestSelectRegionBackwardGrowth pins the branch that grows the region
// toward earlier-created vars when the forward walk exhausts the list
// before reaching minAccesses.
func TestSelectRegionBackwardGrowth(t *testing.T) {
	p, err := Collect(regionProg, Options{Base: sched.Base{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.sharedVars()); n != 3 {
		t.Fatalf("%d shared vars, want 3", n)
	}
	// Find a seed whose first Intn(3) lands on the last var, so forward
	// growth contributes only "c" (2 accesses) and the threshold forces the
	// backward loop to pull in b, then a.
	seed := int64(-1)
	for s := int64(0); s < 100; s++ {
		if rand.New(rand.NewSource(s)).Intn(3) == 2 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed starts the region at the last var")
	}
	sel, ok := p.SelectRegion(rand.New(rand.NewSource(seed)), 5)
	if !ok {
		t.Fatal("region selection failed")
	}
	// c (2) + b (2) < 5, so the region must have grown back to a.
	if len(sel.Objects) != 3 {
		t.Fatalf("backward growth stopped early: %v", sel.Objects)
	}
	got := map[string]bool{}
	for _, n := range sel.Objects {
		got[n] = true
	}
	if !got["a"] || !got["b"] || !got["c"] {
		t.Fatalf("region %v does not span the var list", sel.Objects)
	}
	if !sel.Interesting(sched.Event{Kind: sched.OpRead, ObjHash: sched.HashName("a")}) {
		t.Fatal("backward-grown var not in predicate")
	}
}

// TestCollectAllTruncatedKeepsPartialProfile: when every census run hits the
// step budget, Collect must report the error AND still hand back the partial
// counts (callers use them for best-effort Δ selection).
func TestCollectAllTruncatedKeepsPartialProfile(t *testing.T) {
	spin := func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		t.Go(func(w *sched.Thread) {
			for {
				x.Add(w, 1)
			}
		})
		for {
			x.Add(t, 1)
		}
	}
	p, err := Collect(spin, Options{Base: sched.Base{MaxSteps: 40, Seed: 4}, Runs: 3})
	if err == nil {
		t.Fatal("expected every-run-truncated error")
	}
	if p == nil {
		t.Fatal("partial profile discarded on truncation")
	}
	if p.Info.TotalEvents == 0 {
		t.Fatal("partial profile holds no counts")
	}
	found := false
	for _, o := range p.Objs {
		if o.Name == "x" && o.Accesses > 0 && o.Threads == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("census lost the contended var: %+v", p.Objs)
	}
}

// TestThreadsCountsSameLidOnceAcrossKinds: ObjStat.Threads counts distinct
// logical threads, so a var one thread both reads and writes is one thread,
// not two (the thread-touch key must drop the event kind).
func TestThreadsCountsSameLidOnceAcrossKinds(t *testing.T) {
	readWrite := func(t *sched.Thread) {
		v := t.NewVar("v", 0)
		w := t.Go(func(w *sched.Thread) {
			x := v.Load(w)
			v.Store(w, x+1)
			v.Store(w, v.Load(w)+1)
		})
		t.Join(w)
	}
	p, err := Collect(readWrite, Options{Base: sched.Base{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range p.Objs {
		if o.Name != "v" {
			continue
		}
		if o.Threads != 1 {
			t.Fatalf("v touched by one thread under read and write kinds, Threads = %d", o.Threads)
		}
		if o.Accesses != 4 || o.Writes != 2 {
			t.Fatalf("v stats %+v, want 4 accesses / 2 writes", o)
		}
		return
	}
	t.Fatal("var v missing from census")
}

// The one-name form of AccessTo compares a hash where the several-name form
// looks a map up; over every event of a recorded schedule the two must
// agree, and a name repeated makes the several-name form the same set.
func TestSingleNameAccessToMatchesTheSet(t *testing.T) {
	res := sched.Run(prog, core.NewRandomWalk(), sched.Options{RecordTrace: true})
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for _, name := range []string{"hot", "mu"} {
		one, set, both := AccessTo(name), AccessTo(name, name), AccessTo("hot", "mu")
		matched := 0
		for _, ev := range res.Trace {
			if one(ev) != set(ev) {
				t.Fatalf("AccessTo(%q) disagrees with its set form on %v", name, ev)
			}
			if one(ev) {
				matched++
				if !both(ev) {
					t.Fatalf("AccessTo(hot, mu) misses %v", ev)
				}
			}
		}
		if (matched > 0) != (name == "hot") {
			t.Fatalf("AccessTo(%q) matched %d events", name, matched)
		}
	}
}
