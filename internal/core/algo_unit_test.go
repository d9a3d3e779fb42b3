package core

import (
	"math/rand"
	"testing"

	"surw/internal/sched"
)

// --- remWeights -------------------------------------------------------------

// treeInfo builds a profile with root 0 spawning 0.0 and 0.1, and 0.1
// spawning 0.1.0, with the given per-thread counts.
func treeInfo(counts map[string]int) *sched.ProgramInfo {
	pi := sched.NewProgramInfo()
	for _, p := range []string{"0", "0.0", "0.1", "0.1.0"} {
		pi.AddThread(p, parentPath(p))
	}
	for p, c := range counts {
		l := pi.LID(p)
		pi.Events[l] = c
		pi.InterestingEvents[l] = c
		pi.TotalEvents += c
	}
	return pi
}

func parentPath(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '.' {
			return p[:i]
		}
	}
	return ""
}

func TestRemWeightsSubtreeAccumulation(t *testing.T) {
	info := treeInfo(map[string]int{"0": 2, "0.0": 3, "0.1": 4, "0.1.0": 5})
	var rw remWeights
	rw.reset(info, false)
	// Root carries the whole tree; 0.1 carries its child.
	if rw.w[info.LID("0")] != 2+3+4+5 {
		t.Fatalf("root weight = %d", rw.w[info.LID("0")])
	}
	if rw.w[info.LID("0.1")] != 4+5 {
		t.Fatalf("0.1 weight = %d", rw.w[info.LID("0.1")])
	}
	if rw.w[info.LID("0.0")] != 3 {
		t.Fatalf("0.0 weight = %d", rw.w[info.LID("0.0")])
	}
}

func TestRemWeightsNoCorrection(t *testing.T) {
	info := treeInfo(map[string]int{"0": 2, "0.0": 3, "0.1": 4, "0.1.0": 5})
	rw := remWeights{noCorrect: true}
	rw.reset(info, false)
	if rw.w[info.LID("0")] != 2 || rw.w[info.LID("0.1")] != 4 {
		t.Fatalf("uncorrected weights wrong: %v", rw.w)
	}
}

func TestRemWeightsInterestingCounts(t *testing.T) {
	info := treeInfo(map[string]int{"0": 2, "0.0": 3, "0.1": 4, "0.1.0": 5})
	info.InterestingEvents[info.LID("0.0")] = 1 // differs from Events
	var rw remWeights
	rw.reset(info, true)
	if rw.rem[info.LID("0.0")] != 1 {
		t.Fatalf("interesting count not used: %v", rw.rem)
	}
}

// weightsHarness runs a tiny program far enough to resolve TIDs, then
// hands the state to f.
func weightsHarness(t *testing.T, info *sched.ProgramInfo, f func(st *sched.State, rw *remWeights)) {
	t.Helper()
	var rw remWeights
	rw.reset(info, false)
	probe := &probeAlg{f: func(st *sched.State) { f(st, &rw) }}
	sched.Run(func(th *sched.Thread) {
		v := th.NewVar("v", 0)
		h1 := th.Go(func(w *sched.Thread) { v.Add(w, 1); v.Add(w, 1); v.Add(w, 1) })
		h2 := th.Go(func(w *sched.Thread) {
			g := w.Go(func(g *sched.Thread) { v.Add(g, 1) })
			w.Join(g)
			v.Add(w, 1)
		})
		th.Join(h1)
		th.Join(h2)
	}, probe, sched.Options{Info: info})
}

// probeAlg calls f once at the first multi-enabled decision, then behaves
// as leftmost.
type probeAlg struct {
	f    func(*sched.State)
	done bool
}

func (p *probeAlg) Name() string                         { return "probe" }
func (p *probeAlg) Begin(*sched.ProgramInfo, *rand.Rand) {}
func (p *probeAlg) Observe(sched.Event, *sched.State)    {}
func (p *probeAlg) Next(st *sched.State) sched.ThreadID {
	if !p.done {
		p.done = true
		p.f(st)
	}
	return st.Enabled()[0]
}

func TestRemWeightsRuntimeMapping(t *testing.T) {
	info := treeInfo(map[string]int{"0": 2, "0.0": 3, "0.1": 4, "0.1.0": 5})
	weightsHarness(t, info, func(st *sched.State, rw *remWeights) {
		// TIDs 1 and 2 are the two children (paths 0.0 and 0.1).
		if got := rw.weight(st, 1); got != 3 {
			t.Errorf("weight(0.0) = %v", got)
		}
		// 0.1 still carries its unspawned child here only if 0.1.0 has not
		// spawned; at the first decision it has not.
		if got := rw.weight(st, 2); got != 9 {
			t.Errorf("weight(0.1) = %v (want 4+5)", got)
		}
		rw.onEvent(st, 1)
		if got := rw.weight(st, 1); got != 2 {
			t.Errorf("after onEvent weight = %v", got)
		}
		// Exhausting the count clamps at zero.
		rw.onEvent(st, 1)
		rw.onEvent(st, 1)
		rw.onEvent(st, 1)
		if got := rw.weight(st, 1); got != 0 {
			t.Errorf("clamped weight = %v", got)
		}
	})
}

func TestRemWeightsUnknownThread(t *testing.T) {
	info := treeInfo(map[string]int{"0": 1})
	weightsHarness(t, info, func(st *sched.State, rw *remWeights) {
		// Paths 0.0 / 0.1 were pruned from this info: unknown threads weigh 0
		// and onEvent must not panic.
		pruned := sched.NewProgramInfo()
		pruned.AddThread("0", "")
		rw2 := remWeights{}
		rw2.reset(pruned, false)
		if got := rw2.weight(st, 1); got != 0 {
			t.Errorf("unknown thread weight = %v", got)
		}
		rw2.onEvent(st, 1)
		rw2.onSpawn(st, 1)
	})
}

// --- eventPrio ---------------------------------------------------------------

func TestEventPrioStableUntilNewEvent(t *testing.T) {
	var ep eventPrio
	ep.reset(rand.New(rand.NewSource(1)))
	probe := &probeAlg{f: func(st *sched.State) {
		e := st.Enabled()
		p1 := ep.get(st, e[0])
		p2 := ep.get(st, e[0])
		if p1 != p2 {
			t.Error("priority changed without a new event")
		}
		ep.resample(st, e[0])
		// Resampling with the same rng state gives a fresh draw with
		// probability 1.
		if ep.get(st, e[0]) == p1 {
			t.Error("resample did not change the priority")
		}
	}}
	sched.Run(func(th *sched.Thread) {
		v := th.NewVar("v", 0)
		h := th.Go(func(w *sched.Thread) { v.Add(w, 1) })
		v.Add(th, 1)
		th.Join(h)
	}, probe, sched.Options{})
}

// --- PCT ---------------------------------------------------------------------

func TestPCTDeterministicWithoutChangePoints(t *testing.T) {
	// Depth 1 => no change points: PCT degenerates to a fixed priority
	// order, so two schedules with the same seed AND the same priorities
	// are identical, and the highest-priority thread runs first.
	prog := bitshift(3)
	info := bitshiftInfo(3, nil)
	a := sched.Run(prog, NewPCT(1), sched.Options{Base: sched.Base{Seed: 5}, Info: info})
	b := sched.Run(prog, NewPCT(1), sched.Options{Base: sched.Base{Seed: 5}, Info: info})
	if a.Behavior != b.Behavior {
		t.Fatal("PCT-1 with equal seeds diverged")
	}
	// With no change points only two behaviours are possible: A fully
	// before B or B fully before A.
	seen := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		r := sched.Run(prog, NewPCT(1), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		seen[r.Behavior] = true
	}
	if len(seen) != 2 {
		t.Fatalf("PCT-1 produced %d behaviours, want exactly 2 (block orders)", len(seen))
	}
}

func TestPCTChangePointCausesPreemption(t *testing.T) {
	// With depth >> trace length, change points fire constantly, so more
	// than the two block-order behaviours must appear.
	prog := bitshift(3)
	info := bitshiftInfo(3, nil)
	seen := map[string]bool{}
	for seed := int64(0); seed < 60; seed++ {
		r := sched.Run(prog, NewPCT(8), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		seen[r.Behavior] = true
	}
	if len(seen) <= 2 {
		t.Fatalf("PCT-8 produced only %d behaviours; change points not firing", len(seen))
	}
}

func TestPCTNameAndConstruction(t *testing.T) {
	if NewPCT(3).Name() != "PCT-3" || NewPCT(10).Name() != "PCT-10" || NewPCT(7).Name() != "PCT-7" {
		t.Fatal("PCT names wrong")
	}
	if NewPCT(0).Depth != 1 {
		t.Fatal("depth floor wrong")
	}
}

// --- POS ---------------------------------------------------------------------

func TestPOSResamplingChangesOutcomes(t *testing.T) {
	// On the all-racing bitshift program POS degrades to ~RW (paper §2.1);
	// sanity: it remains complete and skewed relative to URW.
	prog := bitshift(4)
	info := bitshiftInfo(4, nil)
	pos := map[string]int{}
	for seed := int64(0); seed < 4000; seed++ {
		r := sched.Run(prog, NewPOS(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		pos[r.Behavior]++
	}
	urw := map[string]int{}
	for seed := int64(0); seed < 4000; seed++ {
		r := sched.Run(prog, NewURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		urw[r.Behavior]++
	}
	xPOS := chiSquare(pos, binom(8, 4), 4000)
	xURW := chiSquare(urw, binom(8, 4), 4000)
	if xPOS < 3*xURW {
		t.Fatalf("POS chi2 %.1f should be far above URW %.1f on the all-racing program", xPOS, xURW)
	}
}

// --- SURW fallback -----------------------------------------------------------

// TestSURWFallbackWhenIntendedBlocked forces the §3.5 critical-section
// hazard: Δ contains lock-protected accesses, and the intended thread can
// be stuck waiting for a lock held by a blocked rival. SURW must re-select
// and make progress rather than livelock.
func TestSURWFallbackWhenIntendedBlocked(t *testing.T) {
	prog := func(th *sched.Thread) {
		m := th.NewMutex("m")
		x := th.NewVar("x", 0)
		body := func(w *sched.Thread) {
			for i := 0; i < 3; i++ {
				m.Lock(w)
				x.Add(w, 1) // interesting, inside the critical section
				x.Add(w, 1)
				m.Unlock(w)
			}
		}
		h1, h2, h3 := th.Go(body), th.Go(body), th.Go(body)
		th.JoinAll(h1, h2, h3)
	}
	info := sched.NewProgramInfo()
	info.AddThread("0", "")
	for i, p := range []string{"0.0", "0.1", "0.2"} {
		l := info.AddThread(p, "0")
		_ = i
		info.Events[l] = 12
		info.InterestingEvents[l] = 6
	}
	info.Events[info.LID("0")] = 3
	info.TotalEvents = 39
	info.Interesting = func(ev sched.Event) bool { return ev.Kind.IsMemAccess() }
	for seed := int64(0); seed < 50; seed++ {
		r := sched.Run(prog, NewSURW(), sched.Options{Base: sched.Base{Seed: seed, MaxSteps: 5000}, Info: info})
		if r.Buggy() || r.Truncated {
			t.Fatalf("seed %d: failure=%v truncated=%v (fallback livelocked?)", seed, r.Failure, r.Truncated)
		}
	}
}

func TestSURWNamesAndKnobs(t *testing.T) {
	if NewSURW().Name() != "SURW" || NewNonUniform().Name() != "N-U" || NewNonSelective().Name() != "N-S" {
		t.Fatal("names wrong")
	}
	s := NewSURW()
	s.PickUniform = true
	s.NoSpawnCorrection = true
	info := bitshiftInfo(3, nil)
	for seed := int64(0); seed < 20; seed++ {
		r := sched.Run(bitshift(3), s, sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if r.Buggy() {
			t.Fatal(r.Failure)
		}
	}
}

// TestSURWHandoffTelescopes checks the §3.5/§4.2 commitment math: with one
// checker spawned last after n setters (creation costing main-thread
// events), the checker's single interesting event goes first in ~1/(n+1)
// of schedules — not exponentially rarely.
func TestSURWHandoffTelescopes(t *testing.T) {
	const setters = 9
	prog := func(th *sched.Thread) {
		b := th.NewVar("b", 0)
		first := th.NewVar("first", -1)
		ctl := th.NewVar("ctl", 0)
		var hs []*sched.Handle
		for i := 0; i < setters; i++ {
			hs = append(hs, th.Go(func(w *sched.Thread) {
				if b.Add(w, 1) == 1 {
					first.Store(w, 0) // a setter went first
				}
			}))
			ctl.Add(th, 1)
		}
		hs = append(hs, th.Go(func(w *sched.Thread) {
			if b.Add(w, 1) == 1 {
				first.Store(w, 1) // the checker went first
			}
		}))
		th.JoinAll(hs...)
		if first.Peek() == 1 {
			th.SetBehavior("checker-first")
		} else {
			th.SetBehavior("setter-first")
		}
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	info.Events[root] = setters + 2
	for i := 0; i <= setters; i++ {
		l := info.AddThread("0."+itoa(i), "0")
		info.Events[l] = 2
		info.InterestingEvents[l] = 1
	}
	info.TotalEvents = setters + 2 + 2*(setters+1)
	info.Interesting = func(ev sched.Event) bool {
		return ev.Kind.IsMemAccess() && ev.ObjHash == hashOf("b")
	}
	hits := 0
	const n = 4000
	for seed := int64(0); seed < n; seed++ {
		r := sched.Run(prog, NewSURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if r.Behavior == "checker-first" {
			hits++
		}
	}
	// Expected 1/10 = 400; allow generous slack (5 sigma ~ +-95).
	if hits < 280 || hits > 520 {
		t.Fatalf("checker-first in %d/%d schedules; want ~%d (telescoping broken)", hits, n, n/(setters+1))
	}
}

// --- RandomWalk source fast path --------------------------------------------

// TestRandomWalkSourceDrawIdentity holds the inlined NextIndex draw (via
// BeginSource) bit-identical to rng.Intn over the full range of enabled
// counts the scheduler can present, including power-of-two sizes and sizes
// that exercise the rejection threshold.
func TestRandomWalkSourceDrawIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		srcA := rand.NewSource(seed)
		fast := NewRandomWalk()
		fast.Begin(nil, rand.New(srcA))
		fast.BeginSource(srcA)

		slow := rand.New(rand.NewSource(seed))

		sizes := make([]int, 0, 4096)
		szRng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 4096; i++ {
			sizes = append(sizes, 1+szRng.Intn(64))
		}
		for i, n := range sizes {
			got, want := fast.NextIndex(n), slow.Intn(n)
			if got != want {
				t.Fatalf("seed %d draw %d (n=%d): fast=%d slow=%d", seed, i, n, got, want)
			}
		}
	}
}

// TestRandomWalkNextMatchesNextIndex holds the IndexChooser contract from
// the engine's side: the slow loop decides through Next, the batched
// engine through NextIndex on the raw source, and every seed walks the
// same schedule either way.
func TestRandomWalkNextMatchesNextIndex(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		opts := sched.Options{Base: sched.Base{Seed: seed}}
		fast := sched.Run(bitshift(4), NewRandomWalk(), opts)
		opts.DisableBatching = true
		slow := sched.Run(bitshift(4), NewRandomWalk(), opts)
		if fast.InterleavingHash != slow.InterleavingHash || fast.Behavior != slow.Behavior {
			t.Fatalf("seed %d: NextIndex walked %q, Next %q", seed, fast.Behavior, slow.Behavior)
		}
	}
}

// TestRandomWalkBeginDropsSource holds that a bare Begin (no BeginSource,
// as a caller driving the algorithm directly would do) falls back to the
// rng and never touches a stale source from an earlier schedule.
func TestRandomWalkBeginDropsSource(t *testing.T) {
	a := NewRandomWalk()
	stale := rand.NewSource(7)
	a.Begin(nil, rand.New(rand.NewSource(1)))
	a.BeginSource(stale)
	a.Begin(nil, rand.New(rand.NewSource(2)))
	want := rand.New(rand.NewSource(2)).Intn(21)
	if got := a.NextIndex(21); got != want {
		t.Fatalf("after re-Begin: got %d want %d (stale source used?)", got, want)
	}
}
