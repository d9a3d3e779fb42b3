package progfuzz

import (
	"math/rand"
	"testing"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/sched"
	"surw/internal/systematic"
)

// algorithms under robustness test.
var algNames = []string{"SURW", "URW", "POS", "PCT-3", "PCT-10", "RW", "N-U", "N-S"}

// producing reports whether k is a non-blocking produce-phase op of the
// GenSync grammar: the phase discipline the tests validate.
func (k opKind) producing() bool {
	switch k {
	case opRecv, opSemP, opWgWait, opGateWait:
		return false
	}
	return true
}

// Threads returns the number of thread plans (including the root).
func (p *Program) Threads() int { return len(p.threads) }

func TestGeneratedProgramsAreDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p1 := Gen(seed, Config{})
		p2 := Gen(seed, Config{})
		if p1.Threads() != p2.Threads() {
			t.Fatalf("seed %d: generation nondeterministic", seed)
		}
		a := sched.Run(p1.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 7}})
		b := sched.Run(p2.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 7}})
		if a.InterleavingHash != b.InterleavingHash || a.Behavior != b.Behavior {
			t.Fatalf("seed %d: runs diverged", seed)
		}
	}
}

// TestNoAlgorithmBreaksGeneratedPrograms is the core robustness sweep:
// generated programs are deadlock-free and assertion-free, so any failure
// or truncation is a framework bug.
func TestNoAlgorithmBreaksGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := Gen(seed, Config{})
		prog := p.Prog()
		prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: 999}})
		if err != nil {
			t.Fatalf("gen %d: profiling truncated: %v", seed, err)
		}
		for _, name := range algNames {
			alg, err := core.New(name)
			if err != nil {
				t.Fatal(err)
			}
			var info *sched.ProgramInfo
			switch name {
			case "SURW", "N-U":
				if sel, ok := prof.SelectSingleVar(newRng(seed)); ok {
					info = prof.Instantiate(sel)
				} else {
					info = prof.Instantiate(prof.SelectAll())
				}
			case "URW", "N-S", "PCT-3", "PCT-10":
				info = prof.Instantiate(prof.SelectAll())
			}
			for s := int64(0); s < 15; s++ {
				r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: s, MaxSteps: 100_000}, Info: info})
				if r.Buggy() {
					t.Fatalf("gen %d, %s, seed %d: spurious failure %v", seed, name, s, r.Failure)
				}
				if r.Truncated {
					t.Fatalf("gen %d, %s, seed %d: truncated", seed, name, s)
				}
			}
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestSamplersWithinOracleSpace cross-checks random samplers against the
// exhaustive oracle on tiny generated programs.
func TestSamplersWithinOracleSpace(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 30 && checked < 5; seed++ {
		p := Gen(seed, Config{MaxThreads: 3, MaxOps: 3, Vars: 2, Mutexes: 1})
		prog := p.Prog()
		oracle := systematic.Explore(prog, systematic.Options{MaxSchedules: 60_000})
		if !oracle.Exhausted {
			continue // too large; skip
		}
		checked++
		for _, name := range []string{"RW", "POS", "SURW"} {
			alg, _ := core.New(name)
			for s := int64(0); s < 200; s++ {
				r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: s}})
				if !oracle.Interleavings[r.InterleavingHash] {
					t.Fatalf("gen %d: %s left the feasible space", seed, name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no generated program was small enough for the oracle")
	}
}

func TestConfigNormalization(t *testing.T) {
	p := Gen(1, Config{MaxThreads: -1, MaxOps: 0, Vars: 0, Mutexes: 0, SpawnDepth: 0})
	if p.Threads() < 1 {
		t.Fatal("no root thread")
	}
	r := sched.Run(p.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 1}})
	if r.Buggy() {
		t.Fatalf("normalized config program failed: %v", r.Failure)
	}
}

func TestThreadBudgetRespected(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := Gen(seed, Config{MaxThreads: 3})
		if p.Threads() > 3 {
			t.Fatalf("seed %d: %d thread plans exceed the budget", seed, p.Threads())
		}
	}
}

// TestGenSyncPhaseDiscipline: the deadlock-freedom argument for the
// extended grammar rests on (a) every consuming op following every
// producing op within a thread, and (b) per-resource production covering
// consumption. Validate both structurally for many seeds.
func TestGenSyncPhaseDiscipline(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := GenSync(seed, Config{})
		sends := make(map[int]int)
		recvs := make(map[int]int)
		vcnt := make(map[int]int)
		pcnt := make(map[int]int)
		dones, waits, adds := 0, 0, 0
		for ti, plan := range p.threads {
			seenConsume := false
			for oi, o := range plan {
				if !o.kind.producing() {
					seenConsume = true
				} else if seenConsume {
					t.Fatalf("seed %d thread %d op %d: producing op after a consuming op", seed, ti, oi)
				}
				switch o.kind {
				case opSend:
					sends[o.arg]++
				case opRecv:
					recvs[o.arg]++
				case opSemV:
					vcnt[o.arg]++
				case opSemP:
					pcnt[o.arg]++
				case opWgDone:
					dones++
				case opWgWait:
					waits++
				case opWgAdd:
					adds += o.arg
					if ti != 0 || oi != 0 {
						t.Fatalf("seed %d: wgAdd not the root's first op", seed)
					}
				}
			}
		}
		for c, n := range recvs {
			if n > sends[c] {
				t.Fatalf("seed %d: channel %d consumes %d > produces %d", seed, c, n, sends[c])
			}
			if p.chanCap[c] < sends[c] {
				t.Fatalf("seed %d: channel %d capacity %d < sends %d", seed, c, p.chanCap[c], sends[c])
			}
		}
		for s, n := range pcnt {
			if n > vcnt[s] {
				t.Fatalf("seed %d: semaphore %d consumes %d > produces %d", seed, s, n, vcnt[s])
			}
		}
		if adds != dones {
			t.Fatalf("seed %d: wg Add(%d) != %d Dones", seed, adds, dones)
		}
		if waits > 0 && dones == 0 {
			t.Fatalf("seed %d: wgWait with no Dones", seed)
		}
	}
}

// TestGenSyncRunsClean: extended-grammar programs must terminate without
// failure under randomized scheduling, and deterministically per seed.
func TestGenSyncRunsClean(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := GenSync(seed, Config{})
		prog := p.Prog()
		var prevHash uint64
		var prevBeh string
		for rep := 0; rep < 2; rep++ {
			r := sched.Run(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed * 3}})
			if r.Buggy() {
				t.Fatalf("seed %d: spurious failure %v", seed, r.Failure)
			}
			if r.Truncated {
				t.Fatalf("seed %d: truncated", seed)
			}
			if rep == 1 && (r.InterleavingHash != prevHash || r.Behavior != prevBeh) {
				t.Fatalf("seed %d: nondeterministic", seed)
			}
			prevHash, prevBeh = r.InterleavingHash, r.Behavior
		}
	}
}

// TestGenSyncUsesExtendedVocabulary: across seeds the extended grammar
// must actually emit channel, semaphore, waitgroup, and gate events (a
// degenerate generator would trivially pass the clean-run sweep).
func TestGenSyncUsesExtendedVocabulary(t *testing.T) {
	kinds := make(map[opKind]bool)
	for seed := int64(0); seed < 100; seed++ {
		p := GenSync(seed, Config{})
		for _, plan := range p.threads {
			for _, o := range plan {
				kinds[o.kind] = true
			}
		}
	}
	for _, want := range []opKind{opSend, opRecv, opSemV, opSemP, opWgDone, opWgWait, opGateOpen, opGateWait} {
		if !kinds[want] {
			t.Fatalf("extended grammar never emitted op kind %d", want)
		}
	}
}

// TestGenDeadlockOracleMatchesEnumeration: the computed expected-deadlock
// flag must agree with exhaustive enumeration of the schedule space.
func TestGenDeadlockOracleMatchesEnumeration(t *testing.T) {
	sawExpected, sawSafe := false, false
	for seed := int64(0); seed < 25; seed++ {
		p, expect := GenDeadlock(seed, Config{})
		oracle := systematic.Explore(p.Prog(), systematic.Options{MaxSchedules: 200_000})
		if !oracle.Exhausted {
			t.Fatalf("seed %d: deadlock program too large to enumerate", seed)
		}
		found := oracle.Bugs["deadlock"] > 0
		if found != expect {
			t.Fatalf("seed %d: oracle says deadlock=%v, enumeration found %v", seed, expect, found)
		}
		for id := range oracle.Bugs {
			if id != "deadlock" {
				t.Fatalf("seed %d: unexpected bug class %q", seed, id)
			}
		}
		if expect {
			sawExpected = true
		} else {
			sawSafe = true
		}
	}
	if !sawExpected || !sawSafe {
		t.Fatalf("grammar degenerate: expected=%v safe=%v over the sweep", sawExpected, sawSafe)
	}
}

// TestGenDeadlockDeterministic: same seed, same program, same oracle.
func TestGenDeadlockDeterministic(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p1, e1 := GenDeadlock(seed, Config{})
		p2, e2 := GenDeadlock(seed, Config{})
		if e1 != e2 || p1.Threads() != p2.Threads() {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
		a := sched.Run(p1.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}})
		b := sched.Run(p2.Prog(), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}})
		if a.InterleavingHash != b.InterleavingHash || a.BugID() != b.BugID() {
			t.Fatalf("seed %d: runs diverged", seed)
		}
	}
}
