package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"surw/internal/sched"
)

// ---------------------------------------------------------------------------
// Test programs
// ---------------------------------------------------------------------------

// bitshift is the Figure 1 program: two threads atomically append a bit to
// shared x, thread A a 0 and thread B a 1, k times each. Every interleaving
// yields a distinct final x, so the final value identifies the interleaving.
func bitshift(k int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		x := t.NewVar("x", 1) // leading 1 keeps early zeros significant
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v << 1 })
			}
		})
		b := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v<<1 + 1 })
			}
		})
		t.Join(a)
		t.Join(b)
		t.SetBehavior(itoa(int(x.Peek())))
	}
}

// bitshiftInfo hand-builds the profile for bitshift(k).
func bitshiftInfo(k int, interesting func(sched.Event) bool) *sched.ProgramInfo {
	pi := sched.NewProgramInfo()
	root := pi.AddThread("0", "")
	a := pi.AddThread("0.0", "0")
	b := pi.AddThread("0.1", "0")
	pi.Events[root] = 2 // 2 joins (spawns are not events)
	pi.Events[a] = k
	pi.Events[b] = k
	pi.InterestingEvents[root] = 0
	pi.InterestingEvents[a] = k
	pi.InterestingEvents[b] = k
	pi.TotalEvents = 2 + 2*k
	pi.Interesting = interesting
	if interesting == nil {
		copy(pi.InterestingEvents, pi.Events)
	}
	return pi
}

// noisy is a Figure 3 analogue: thread A performs k interesting x-appends
// then m noise events on y; thread B performs m noise events then k
// x-appends. Without selectivity, x-interleavings where B runs early are
// vanishingly rare.
func noisy(k, m int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		x := t.NewVar("x", 1)
		y := t.NewVar("y", 0)
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v << 1 })
			}
			for i := 0; i < m; i++ {
				y.Add(w, 1)
			}
		})
		b := t.Go(func(w *sched.Thread) {
			for i := 0; i < m; i++ {
				y.Add(w, 1)
			}
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v<<1 + 1 })
			}
		})
		t.Join(a)
		t.Join(b)
		t.SetBehavior(itoa(int(x.Peek())))
	}
}

func noisyInfo(k, m int) *sched.ProgramInfo {
	pi := sched.NewProgramInfo()
	root := pi.AddThread("0", "")
	a := pi.AddThread("0.0", "0")
	b := pi.AddThread("0.1", "0")
	pi.Events[root] = 2
	pi.Events[a] = k + m
	pi.Events[b] = k + m
	pi.InterestingEvents[root] = 0
	pi.InterestingEvents[a] = k
	pi.InterestingEvents[b] = k
	pi.TotalEvents = 2 + 2*(k+m)
	pi.Interesting = func(ev sched.Event) bool {
		return ev.Kind.IsMemAccess() && ev.ObjHash == hashOf("x")
	}
	return pi
}

func hashOf(name string) uint64 {
	const off, prime = 14695981039346656037, 1099511628211
	h := uint64(off)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	return h
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// sampleBehaviors runs prog n times under alg and tallies behaviours.
func sampleBehaviors(prog func(*sched.Thread), alg sched.Algorithm, info *sched.ProgramInfo, n int) map[string]int {
	counts := make(map[string]int)
	for seed := 0; seed < n; seed++ {
		res := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(seed)}, Info: info})
		if res.Buggy() {
			panic(res.Failure)
		}
		counts[res.Behavior]++
	}
	return counts
}

// chiSquare computes the statistic against a uniform expectation.
func chiSquare(counts map[string]int, classes, n int) float64 {
	exp := float64(n) / float64(classes)
	x := 0.0
	seen := 0
	for _, c := range counts {
		d := float64(c) - exp
		x += d * d / exp
		seen++
	}
	x += float64(classes-seen) * exp // unseen classes contribute (0-exp)^2/exp
	return x
}

// ---------------------------------------------------------------------------
// Uniformity (the paper's central claim, Figure 2)
// ---------------------------------------------------------------------------

func TestURWUniformOnBitshift(t *testing.T) {
	const k = 4
	classes := binom(2*k, k) // 70
	n := classes * 400
	info := bitshiftInfo(k, nil)
	counts := sampleBehaviors(bitshift(k), NewURW(), info, n)
	if len(counts) != classes {
		t.Fatalf("URW saw %d distinct outcomes, want %d", len(counts), classes)
	}
	// df = 69; P(chi2 > 120) < 0.0002. The test is seeded, so no flake.
	if x := chiSquare(counts, classes, n); x > 120 {
		t.Fatalf("URW chi-square = %.1f, too far from uniform", x)
	}
}

func TestRandomWalkSkewedOnBitshift(t *testing.T) {
	const k = 4
	classes := binom(2*k, k)
	n := classes * 400
	counts := sampleBehaviors(bitshift(k), NewRandomWalk(), NewProgramInfoForTest(), n)
	x := chiSquare(counts, classes, n)
	if x < 1000 {
		t.Fatalf("Random Walk chi-square = %.1f; expected heavy skew (sanity of the uniformity test)", x)
	}
}

// NewProgramInfoForTest returns a nil-safe empty profile.
func NewProgramInfoForTest() *sched.ProgramInfo { return nil }

func TestPCTSkewedOnBitshift(t *testing.T) {
	const k = 4
	classes := binom(2*k, k)
	n := classes * 400
	counts := sampleBehaviors(bitshift(k), NewPCT(10), bitshiftInfo(k, nil), n)
	if x := chiSquare(counts, classes, n); x < 1000 {
		t.Fatalf("PCT-10 chi-square = %.1f; expected heavy skew", x)
	}
}

func TestSURWDeltaUniformOnNoisyProgram(t *testing.T) {
	const k, m = 3, 12
	classes := binom(2*k, k) // 20
	n := classes * 500
	info := noisyInfo(k, m)
	counts := sampleBehaviors(noisy(k, m), NewSURW(), info, n)
	if len(counts) != classes {
		t.Fatalf("SURW saw %d distinct x outcomes, want %d: %v", len(counts), classes, counts)
	}
	// df = 19; P(chi2 > 50) < 1e-4.
	if x := chiSquare(counts, classes, n); x > 50 {
		t.Fatalf("SURW chi-square = %.1f, Δ-projection not uniform", x)
	}
}

func TestRandomWalkMissesRareDeltaInterleavings(t *testing.T) {
	// Under RW, B's first x-append before A's last requires B to win ~m
	// noise races first; with m=12 several of the 20 classes should be
	// unseen in a small budget, unlike SURW above.
	const k, m = 3, 12
	classes := binom(2*k, k)
	counts := sampleBehaviors(noisy(k, m), NewRandomWalk(), nil, 2000)
	if len(counts) >= classes {
		t.Fatalf("RW unexpectedly saw all %d classes", classes)
	}
}

func TestNonUniformAblationLessUniformThanSURW(t *testing.T) {
	const k = 4
	classes := binom(2*k, k)
	n := classes * 400
	info := bitshiftInfo(k, nil)
	xSURW := chiSquare(sampleBehaviors(bitshift(k), NewSURW(), info, n), classes, n)
	xNU := chiSquare(sampleBehaviors(bitshift(k), NewNonUniform(), info, n), classes, n)
	if xNU < 3*xSURW {
		t.Fatalf("N-U chi-square %.1f not clearly worse than SURW %.1f", xNU, xSURW)
	}
}

// ---------------------------------------------------------------------------
// Γ-completeness: SURW must reach every feasible interleaving
// ---------------------------------------------------------------------------

// replayAlg follows a fixed choice prefix (indices into Enabled), then takes
// index 0, recording the enabled-set width at every step.
type replayAlg struct {
	prefix []int
	widths []int
}

func (r *replayAlg) Name() string                         { return "replay" }
func (r *replayAlg) Begin(*sched.ProgramInfo, *rand.Rand) { r.widths = r.widths[:0] }
func (r *replayAlg) Observe(sched.Event, *sched.State)    {}
func (r *replayAlg) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	step := len(r.widths)
	r.widths = append(r.widths, len(e))
	if step < len(r.prefix) && r.prefix[step] < len(e) {
		return e[r.prefix[step]]
	}
	return e[0]
}

// Note: widths only records steps where the scheduler consulted the
// algorithm (>= 2 enabled); single-enabled steps are fast-pathed, which is
// fine because they offer no choice.

// enumerateInterleavings exhaustively explores all schedules of prog and
// returns the set of interleaving hashes.
func enumerateInterleavings(t *testing.T, prog func(*sched.Thread), limit int) map[uint64]bool {
	t.Helper()
	seen := make(map[uint64]bool)
	queue := [][]int{nil}
	for len(queue) > 0 {
		prefix := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		alg := &replayAlg{prefix: prefix}
		res := sched.Run(prog, alg, sched.Options{})
		if res.Buggy() || res.Truncated {
			t.Fatalf("enumeration run failed: %v truncated=%v", res.Failure, res.Truncated)
		}
		seen[res.InterleavingHash] = true
		if len(seen) > limit {
			t.Fatalf("more than %d interleavings; shrink the program", limit)
		}
		for step := len(prefix); step < len(alg.widths); step++ {
			for c := 1; c < alg.widths[step]; c++ {
				br := make([]int, step+1)
				copy(br, prefix)
				br[step] = c
				queue = append(queue, br)
			}
		}
	}
	return seen
}

func TestEnumerationMatchesCombinatorics(t *testing.T) {
	// bitshift(2): the two workers contribute C(4,2)=6 x-orders; the root's
	// join placements multiply the raw interleaving count, so compare
	// behaviours via exhaustive enumeration of final x instead.
	all := enumerateInterleavings(t, bitshift(2), 10_000)
	if len(all) < binom(4, 2) {
		t.Fatalf("enumerated %d interleavings, want >= %d", len(all), binom(4, 2))
	}
}

func TestSURWGammaComplete(t *testing.T) {
	prog := noisy(2, 1)
	all := enumerateInterleavings(t, prog, 100_000)
	info := noisyInfo(2, 1)
	got := make(map[uint64]bool)
	for seed := 0; seed < 400_000 && len(got) < len(all); seed++ {
		res := sched.Run(prog, NewSURW(), sched.Options{Base: sched.Base{Seed: int64(seed)}, Info: info})
		got[res.InterleavingHash] = true
	}
	if len(got) != len(all) {
		t.Fatalf("SURW reached %d of %d feasible interleavings", len(got), len(all))
	}
	for h := range got {
		if !all[h] {
			t.Fatalf("SURW produced an infeasible interleaving hash %x", h)
		}
	}
}

// ---------------------------------------------------------------------------
// PCT and POS behaviour
// ---------------------------------------------------------------------------

// orderBug fails iff the checker's read executes between the two setter
// writes — a depth-2 ordering bug.
func orderBug(t *sched.Thread) {
	a := t.NewVar("a", 0)
	b := t.NewVar("b", 0)
	setter := t.Go(func(w *sched.Thread) {
		a.Store(w, 1)
		b.Store(w, -1)
	})
	checker := t.Go(func(w *sched.Thread) {
		av := a.Load(w)
		bv := b.Load(w)
		ok := (av == 0 && bv == 0) || (av == 1 && bv == -1) || (av == 0 && bv == -1)
		w.Assert(ok, "order-bug")
	})
	t.Join(setter)
	t.Join(checker)
}

func firstBug(t *testing.T, prog func(*sched.Thread), alg sched.Algorithm, info *sched.ProgramInfo, limit int) int {
	t.Helper()
	for i := 0; i < limit; i++ {
		res := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}, Info: info})
		if res.Buggy() {
			return i + 1
		}
	}
	return -1
}

func TestPCTFindsShallowBug(t *testing.T) {
	// PCT needs a sane schedule-length estimate for its change points.
	info := sched.NewProgramInfo()
	info.AddThread("0", "")
	info.TotalEvents = 10
	if n := firstBug(t, orderBug, NewPCT(3), info, 500); n < 0 {
		t.Fatal("PCT-3 never found the depth-2 bug in 500 schedules")
	}
}

func TestPOSFindsShallowBug(t *testing.T) {
	if n := firstBug(t, orderBug, NewPOS(), nil, 500); n < 0 {
		t.Fatal("POS never found the depth-2 bug in 500 schedules")
	}
}

func TestAllAlgorithmsRunCleanProgram(t *testing.T) {
	info := bitshiftInfo(3, nil)
	for _, name := range AllNames() {
		alg, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			res := sched.Run(bitshift(3), alg, sched.Options{Base: sched.Base{Seed: seed}, Info: info})
			if res.Buggy() || res.Truncated {
				t.Fatalf("%s seed %d: failure=%v truncated=%v", name, seed, res.Failure, res.Truncated)
			}
		}
	}
}

func TestAlgorithmsHandleNilInfo(t *testing.T) {
	for _, name := range AllNames() {
		alg, _ := New(name)
		for seed := int64(0); seed < 10; seed++ {
			res := sched.Run(noisy(2, 3), alg, sched.Options{Base: sched.Base{Seed: seed}})
			if res.Buggy() {
				t.Fatalf("%s with nil info: %v", name, res.Failure)
			}
		}
	}
}

func TestAlgorithmsHandleBlockingSync(t *testing.T) {
	prog := func(t *sched.Thread) {
		m := t.NewMutex("m")
		c := t.NewCond("c", m)
		flag := t.NewVar("flag", 0)
		waiter := t.Go(func(w *sched.Thread) {
			m.Lock(w)
			for flag.Load(w) == 0 {
				c.Wait(w)
			}
			m.Unlock(w)
		})
		m.Lock(t)
		flag.Store(t, 1)
		c.Signal(t)
		m.Unlock(t)
		t.Join(waiter)
	}
	for _, name := range AllNames() {
		alg, _ := New(name)
		for seed := int64(0); seed < 30; seed++ {
			res := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}})
			if res.Buggy() || res.Truncated {
				t.Fatalf("%s seed %d: %v truncated=%v", name, seed, res.Failure, res.Truncated)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Registry and helpers
// ---------------------------------------------------------------------------

func TestNewRegistry(t *testing.T) {
	for _, name := range AllNames() {
		alg, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := New("PCT-7"); err != nil {
		t.Fatal(err)
	}
	if a, _ := New("pct"); a.Name() != "PCT-3" {
		t.Fatal("bare PCT should default to depth 3")
	}
	for _, bad := range []string{"", "nope", "PCT-x", "PCT-0"} {
		if _, err := New(bad); err == nil {
			t.Fatalf("New(%q) should fail", bad)
		}
	}
}

func TestWeightedIndexProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := []float64{1, 0, 3}
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[weightedIndex(rng, w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("ratio = %.2f, want ~3", ratio)
	}
}

func TestWeightedIndexAllZeroUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := [4]int{}
	for i := 0; i < 4000; i++ {
		counts[weightedIndex(rng, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("all-zero fallback not uniform: counts[%d]=%d", i, c)
		}
	}
}

func TestWeightedIndexProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		for i, r := range raw {
			w[i] = float64(r)
		}
		i := weightedIndex(rng, w)
		if i < 0 || i >= len(w) {
			return false
		}
		// A positive-weight element must be chosen whenever one exists.
		anyPos := false
		for _, x := range w {
			if x > 0 {
				anyPos = true
			}
		}
		return !anyPos || w[i] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		n int
		s string
	}{{0, "0"}, {7, "7"}, {10, "10"}, {1234, "1234"}} {
		if itoa(c.n) != c.s {
			t.Fatalf("itoa(%d) = %q", c.n, itoa(c.n))
		}
	}
}

func TestSortInts(t *testing.T) {
	f := func(xs []int) bool {
		ys := append([]int(nil), xs...)
		sortInts(ys)
		for i := 1; i < len(ys); i++ {
			if ys[i-1] > ys[i] {
				return false
			}
		}
		return len(ys) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPCTChangePointsLowerPriority(t *testing.T) {
	// With depth >= trace length the running thread keeps getting demoted,
	// which forces frequent context switches; just assert it still
	// terminates correctly on a synchronizing program.
	info := bitshiftInfo(3, nil)
	for seed := int64(0); seed < 10; seed++ {
		res := sched.Run(bitshift(3), NewPCT(10), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if res.Buggy() || res.Truncated {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestSURWWithWrongCountsStillCompletes(t *testing.T) {
	// Grossly wrong estimates must degrade quality, not correctness (§7).
	info := noisyInfo(3, 5)
	for i := range info.InterestingEvents {
		info.InterestingEvents[i] = 1 // far below truth
	}
	for seed := int64(0); seed < 50; seed++ {
		res := sched.Run(noisy(3, 5), NewSURW(), sched.Options{Base: sched.Base{Seed: seed}, Info: info})
		if res.Buggy() || res.Truncated {
			t.Fatalf("seed %d: %v truncated=%v", seed, res.Failure, res.Truncated)
		}
	}
}

// InputsOf is read off the constructed algorithm, so every spelling New
// accepts gets its canonical name's answer (the runner once matched the
// typed string, and "NS"/"NU" silently ran without their profile).
func TestInputsOfEverySpelling(t *testing.T) {
	for _, tc := range []struct {
		want  Inputs
		names []string
	}{
		{Inputs{Counts: true, Delta: true}, []string{"SURW", "surw", " SURW ", "N-U", "NU", "n-u", "nu"}},
		{Inputs{Counts: true}, []string{"URW", "urw", "N-S", "NS", "n-s", "ns", "PCT", "pct", "PCT-3", "pct-10"}},
		{Inputs{}, []string{"RW", "rw", "RANDOMWALK", "random", "POS", "pos"}},
	} {
		for _, name := range tc.names {
			alg, err := New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if got := InputsOf(alg); got != tc.want {
				t.Errorf("InputsOf(New(%q)) = %+v, want %+v", name, got, tc.want)
			}
		}
	}
}
