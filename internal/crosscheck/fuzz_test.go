package crosscheck

import (
	"testing"

	"surw/internal/core"
	"surw/internal/progfuzz"
	"surw/internal/sched"
)

// FuzzGeneratedProgram feeds fuzzed (seed, grammar) pairs through the full
// differential oracle — grammar picks a row of grammars, counted modulo
// its length: generate a program, enumerate its schedule space,
// and require every sampler to stay inside it, replay bit-exactly, and
// match pooled execution. The fuzzer's job is to find a generator seed
// whose program breaks the framework; any crash here is a real bug in
// either the generators or the scheduler substrate.
func FuzzGeneratedProgram(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(7), int64(1))
	f.Add(int64(3), int64(2))
	f.Add(int64(18), int64(2)) // historically the largest deadlock space
	f.Add(int64(-9000), int64(1))
	f.Add(int64(5), int64(3))
	f.Fuzz(func(t *testing.T, seed, grammar int64) {
		opts := Options{
			Schedules:    3,
			MaxSchedules: 50_000,
			Seed:         seed ^ 0x9e3779b9,
			Algorithms:   []string{"RW", "URW", "SURW", "POS"},
			AllowPartial: true, // mutated seeds may outgrow the enumeration budget
			SkipParallel: true, // keep per-input cost down for the fuzz engine
		}
		g := grammars[uint64(grammar)%uint64(len(grammars))]
		if _, err := g.check(seed, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzClassFingerprint is the commutation metamorphic property as a native
// fuzz target: generate a program, record one schedule, swap the adjacent
// event pair the fuzzer points at, and — when the swapped order is
// feasible — require the class fingerprint to be invariant exactly for
// independent pairs. The fuzzer's job is to find a (program, schedule,
// swap) triple where the incremental hash-clocks disagree with the
// dependence relation.
func FuzzClassFingerprint(f *testing.F) {
	f.Add(int64(1), int64(3), uint16(0), byte(0))
	f.Add(int64(2), int64(11), uint16(5), byte(1))
	f.Add(int64(7), int64(0), uint16(9), byte(0))
	f.Add(int64(18), int64(4), uint16(2), byte(1))
	f.Add(int64(-9000), int64(101), uint16(33), byte(0))
	f.Fuzz(func(t *testing.T, seed, algSeed int64, swap uint16, grammar byte) {
		var prog func(*sched.Thread)
		if grammar%2 == 0 {
			prog = progfuzz.Gen(seed, genConfig).Prog()
		} else {
			prog = progfuzz.GenSync(seed, genSyncConfig).Prog()
		}
		base, trace := runLogged(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: algSeed}})
		if len(trace) < 2 {
			t.Skip("schedule too short to swap")
		}
		i := int(swap) % (len(trace) - 1)
		a, b := trace[i], trace[i+1]
		if a.TID == b.TID {
			t.Skip("program-order pair")
		}
		res, feasible := trySwap(prog, trace, i)
		if !feasible {
			t.Skip("swapped order infeasible")
		}
		if dependent(a, b) {
			if res.ClassHash == base.ClassHash {
				t.Fatalf("swapping dependent events %v / %v preserved class fingerprint %#x", a, b, base.ClassHash)
			}
		} else if res.ClassHash != base.ClassHash {
			t.Fatalf("swapping independent events %v / %v changed class fingerprint %#x -> %#x", a, b, base.ClassHash, res.ClassHash)
		}
	})
}
