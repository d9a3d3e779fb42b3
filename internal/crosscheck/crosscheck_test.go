package crosscheck

import (
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/sched"
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
		if len(reps) != 3 {
			t.Fatalf("seed %d: %d grammars checked, want 3", seed, len(reps))
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
		t.Fatalf("only %d of 15 generated programs had more than one interleaving — the differential sweep is near-vacuous", concurrent)
	}
}

// TestCheckProgramFlagsPhantomFailure: a program with a reachable assert
// failure violates the generators' no-failure promise, and CheckProgram
// must say so rather than bless it.
func TestCheckProgramFlagsPhantomFailure(t *testing.T) {
	racy := func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		h := t.Go(func(w *sched.Thread) { x.Store(w, 1) })
		t.Assert(x.Load(t) == 0, "saw-write")
		t.Join(h)
	}
	_, err := CheckProgram("racy", racy, false, Options{Schedules: 4, SkipParallel: true})
	if err == nil || !strings.Contains(err.Error(), "unexpected failure") {
		t.Fatalf("phantom failure not flagged: %v", err)
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
	prog := experiments.Bitshift(5)
	oracle := systematic.Explore(prog, systematic.Options{TraceFilter: bitshiftFilter})
	if !oracle.Exhausted {
		t.Fatal("bitshift(5) enumeration not exhausted")
	}
	if len(oracle.Interleavings) != 252 {
		t.Fatalf("bitshift(5) has %d worker-event interleavings, want C(10,5) = 252", len(oracle.Interleavings))
	}
	gate, err := UniformityGate(prog, core.NewURW(), experiments.BitshiftInfo(5),
		oracle.Interleavings, bitshiftFilter, 5000, 7, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if gate.Seen != 252 {
		t.Fatalf("URW reached only %d of 252 classes in %d trials", gate.Seen, gate.Trials)
	}
	t.Logf("URW uniformity: %s", gate)
}

// TestEntropyOrderSanity: SURW's interleaving entropy dominates a plain
// random walk's on the bit-shift program (Table 3's ordering).
func TestEntropyOrderSanity(t *testing.T) {
	hS, hR, err := EntropyOrder(experiments.Bitshift(5), core.NewSURW(), core.NewRandomWalk(),
		experiments.BitshiftInfo(5), 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("H(SURW)=%.3f H(RW)=%.3f bits (max=log2(252)=7.977)", hS, hR)
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
	prog := experiments.Bitshift(2)
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

// TestDecisionIdentityAcrossBailOut: the generated programs stay far below
// the batched engine's 64-thread mask, so this one outgrows it mid-schedule
// — free choices first, on the batched engine, then 70 spawns — and the
// decision-stream check, EnabledRank included, must hold across the
// hand-over to the slow loop.
func TestDecisionIdentityAcrossBailOut(t *testing.T) {
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
			hs[i] = th.Go(func(w *sched.Thread) { c.Add(w, 1) })
		}
		th.Join(early)
		th.JoinAll(hs...)
	}
	prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := decisionIdentity("bail-out", prog, prof.Instantiate(prof.SelectAll()), Options{Seed: 1, Schedules: 4}); err != nil {
		t.Fatal(err)
	}
}
