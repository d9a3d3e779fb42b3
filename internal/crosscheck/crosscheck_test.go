package crosscheck

import (
	"fmt"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/internal/stats"
	"surw/internal/systematic"
)

// TestCheckGeneratedSeeds is the differential oracle end to end: for a
// sweep of generator seeds, every algorithm on every grammar must stay
// inside the enumerated interleaving set, replay bit-exactly, and match
// pooled and parallel execution.
func TestCheckGeneratedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed differential sweep")
	}
	concurrent := 0
	for seed := int64(1); seed <= 5; seed++ {
		reps, err := CheckGenerated(seed, Options{Schedules: 8, Seed: 42 + seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != len(grammars) {
			t.Fatalf("seed %d: %d grammars checked, want %d", seed, len(reps), len(grammars))
		}
		for _, rep := range reps {
			if rep.Checked == 0 || rep.Interleavings == 0 {
				t.Fatalf("seed %d: empty report %+v", seed, rep)
			}
			if rep.Interleavings > 1 {
				concurrent++
			}
		}
	}
	// A sweep of sequential programs would pass every check vacuously; the
	// MinThreads floor in the generator configs exists to prevent that.
	if concurrent < 10 {
		t.Fatalf("only %d of %d generated programs had more than one interleaving — the differential sweep is near-vacuous", concurrent, 5*len(grammars))
	}
}

// TestCheckProgramFlagsPhantomFailure: a program with a reachable assert
// failure violates the generators' no-failure promise, and CheckProgram
// must say so rather than bless it — also when a one-schedule enumeration
// budget leaves set membership unchecked: the promise holds for every
// sampled schedule.
func TestCheckProgramFlagsPhantomFailure(t *testing.T) {
	racy := func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		h := t.Go(func(w *sched.Thread) { x.Store(w, 1) })
		t.Assert(x.Load(t) == 0, "saw-write")
		t.Join(h)
	}
	for _, opts := range []Options{
		{Schedules: 4, SkipParallel: true},
		{MaxSchedules: 1, AllowPartial: true, SkipParallel: true},
	} {
		if _, err := CheckProgram("racy", racy, false, opts); err == nil || !strings.Contains(err.Error(), "unexpected failure") {
			t.Errorf("%+v: phantom failure not flagged: %v", opts, err)
		}
	}
}

// TestCheckProgramFlagsWrongDeadlockOracle: claiming a deadlocking program
// is deadlock-free (or vice versa) must fail the check — this is exactly
// the class of generator bug the expected-deadlock oracle exists to catch.
func TestCheckProgramFlagsWrongDeadlockOracle(t *testing.T) {
	var deadlocky *progfuzz.Program
	var safe *progfuzz.Program
	for seed := int64(0); deadlocky == nil || safe == nil; seed++ {
		p, expect := progfuzz.GenDeadlock(seed, genConfig)
		if expect && deadlocky == nil {
			deadlocky = p
		}
		if !expect && safe == nil {
			safe = p
		}
	}
	opts := Options{Schedules: 2, Algorithms: []string{"RW"}, SkipParallel: true}
	if _, err := CheckProgram("lying-safe", deadlocky.Prog(), false, opts); err == nil ||
		!strings.Contains(err.Error(), "unexpected failure") {
		t.Fatalf("deadlocking program accepted as safe: %v", err)
	}
	if _, err := CheckProgram("lying-deadlocky", safe.Prog(), true, opts); err == nil ||
		!strings.Contains(err.Error(), "found none") {
		t.Fatalf("safe program accepted as deadlocking: %v", err)
	}
}

// TestURWBitshiftUniformityRegression is the Figure 2 claim as a unit
// test: URW's empirical distribution over the 252 interleaving classes of
// the Figure 1 bit-shift program passes a chi-square goodness-of-fit test
// against uniform. Pinned seed; the p-floor leaves the expected CI flake
// rate at zero (re-pin the seed if the sampler legitimately changes).
func TestURWBitshiftUniformityRegression(t *testing.T) {
	prog := sctbench.Bitshift(5).Prog
	oracle := systematic.Explore(prog, systematic.Options{TraceFilter: bitshiftFilter})
	if !oracle.Exhausted {
		t.Fatal("bitshift(5) enumeration not exhausted")
	}
	if len(oracle.Interleavings) != 252 {
		t.Fatalf("bitshift(5) has %d worker-event interleavings, want C(10,5) = 252", len(oracle.Interleavings))
	}
	g, err := Uniformity(prog, core.NewURW(), sctbench.BitshiftInfo(5),
		oracle.Interleavings, bitshiftFilter, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seen != 252 {
		t.Fatalf("URW reached only %d of 252 classes in %d trials", g.Seen, g.Trials)
	}
	if g.P < 0.01 {
		t.Fatalf("URW rejected as non-uniform: %s < p-floor 0.01", g)
	}
	t.Logf("URW uniformity: %s", g)
}

// TestEntropyOrderSanity: SURW's interleaving entropy dominates a plain
// random walk's on the bit-shift program (Table 3's ordering).
func TestEntropyOrderSanity(t *testing.T) {
	hS, hR, err := entropyOrder(sctbench.Bitshift(5).Prog, core.NewSURW(), core.NewRandomWalk(),
		sctbench.BitshiftInfo(5), 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("H(SURW)=%.3f H(RW)=%.3f bits (max=log2(252)=7.977)", hS, hR)
}

// entropyOrder checks the Table 3 sanity ordering: over trials schedules,
// the interleaving-distribution entropy of a Δ-uniform sampler (SURW with
// Δ = Γ here, via info) must not fall below a plain random walk's. Returns
// both entropies in bits.
func entropyOrder(prog func(*sched.Thread), surw, rw sched.Algorithm, info *sched.ProgramInfo, trials int, seed int64) (hSURW, hRW float64, err error) {
	sample := func(alg sched.Algorithm) (float64, error) {
		counts := make(map[uint64]int)
		pool := sched.NewPool()
		for i := 0; i < trials; i++ {
			res := pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed + int64(i)}, Info: info})
			if res.Buggy() || res.Truncated {
				return 0, fmt.Errorf("crosscheck: entropy trial %d under %s failed", i, alg.Name())
			}
			counts[res.InterleavingHash]++
		}
		return stats.EntropyOfMap(counts), nil
	}
	if hSURW, err = sample(surw); err != nil {
		return
	}
	if hRW, err = sample(rw); err != nil {
		return
	}
	if hSURW < hRW {
		err = fmt.Errorf("crosscheck: entropy ordering violated: H(%s)=%.3f < H(%s)=%.3f bits", surw.Name(), hSURW, rw.Name(), hRW)
	}
	return
}

// TestMutationSensitivity: the gate must accept the genuine URW and reject
// every deliberately biased variant — the self-test that proves the
// statistical oracle can actually fail.
func TestMutationSensitivity(t *testing.T) {
	rep, err := MutationSensitivity(3000, 19, 0.005)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if len(rep.Mutants) != len(Mutants()) {
		t.Fatalf("only %d of %d mutants were run", len(rep.Mutants), len(Mutants()))
	}
	t.Logf("\n%s", rep)
}

// TestUniformityRejectsIllegalSample: a sampler that leaves the enumerated
// class set is a legality violation, reported as an error rather than
// folded into the statistic.
func TestUniformityRejectsIllegalSample(t *testing.T) {
	prog := sctbench.Bitshift(2).Prog
	oracle := systematic.Explore(prog, systematic.Options{})
	// Poisoned class set: drop one real class so some trial must land
	// outside it.
	poisoned := make(map[uint64]bool)
	n := 0
	for h := range oracle.Interleavings {
		if n > 0 {
			poisoned[h] = true
		}
		n++
	}
	_, err := Uniformity(prog, core.NewRandomWalk(), nil, poisoned, nil, 200, 3)
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("illegal sample not reported: %v", err)
	}
}

// TestDecisionIdentityWideProgram: this program grows past 64 threads, a
// word of the batched engine's thread sets, mid-schedule — free choices
// first, then 70 spawns, the last ten joining earlier ones — and the
// decision-stream check, EnabledRank included, must hold against the slow
// loop across the word boundary.
func TestDecisionIdentityWideProgram(t *testing.T) {
	prog := func(th *sched.Thread) {
		c := th.NewVar("c", 0)
		early := th.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				c.Add(w, 1)
			}
		})
		for i := 0; i < 4; i++ {
			c.Add(th, 1)
		}
		hs := make([]*sched.Handle, 70)
		for i := range hs {
			hs[i] = th.Go(func(w *sched.Thread) {
				if i >= 60 {
					w.Join(hs[i-60])
				}
				c.Add(w, 1)
			})
		}
		th.Join(early)
		th.JoinAll(hs...)
	}
	prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := decisionIdentity("wide-program", prog, prof.Instantiate(prof.SelectAll()), Options{Seed: 1, Schedules: 4}); err != nil {
		t.Fatal(err)
	}
}
