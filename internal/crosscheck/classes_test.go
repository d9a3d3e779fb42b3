package crosscheck

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/progfuzz"
	"surw/internal/sched"
)

// The commutation property tests: for progfuzz-generated programs, replay
// a recorded schedule with two *adjacent* events swapped (when the swapped
// order is feasible) and require the class fingerprint to be preserved for
// independent pairs and changed for dependent pairs. This is the
// metamorphic form of the Mazurkiewicz-trace contract, checked against the
// live engine rather than a reference implementation: both orders really
// execute, so the invariance covers the incremental hash-clocks, spawn
// seeding and object accumulators end to end.

// scriptAlg drives the scheduler along a fixed TID sequence, one entry per
// executed event (forced steps consume entries too, via Observe). When the
// scripted thread is not enabled — the script is infeasible from here —
// it degrades to the lowest enabled TID; callers detect the divergence by
// comparing the resulting trace against the intended one. Used by the
// commutation property tests and FuzzClassFingerprint to execute a
// recorded trace with two adjacent events swapped.
type scriptAlg struct {
	script []sched.ThreadID
	step   int
}

func (s *scriptAlg) Name() string                             { return "script" }
func (s *scriptAlg) Begin(_ *sched.ProgramInfo, _ *rand.Rand) { s.step = 0 }
func (s *scriptAlg) Observe(ev sched.Event, _ *sched.State)   { s.step++ }
func (s *scriptAlg) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	if s.step < len(s.script) {
		want := s.script[s.step]
		for _, tid := range e {
			if tid == want {
				return tid
			}
		}
	}
	return e[0]
}

// runLogged runs one schedule with an EventLog attached and returns its
// Result and its events.
func runLogged(prog func(*sched.Thread), alg sched.Algorithm, opts sched.Options) (*sched.Result, []sched.Event) {
	var log sched.EventLog
	opts.Tracer = &log
	return sched.Run(prog, alg, opts), log.Events
}

// runScripted executes prog along the given per-event TID script and
// reports whether the executed trace is exactly want (the script is only a
// steering hint: infeasible scripts degrade and are detected here).
func runScripted(prog func(*sched.Thread), script []sched.ThreadID, want []sched.Event) (*sched.Result, bool) {
	res, events := runLogged(prog, &scriptAlg{script: script}, sched.Options{})
	return res, slices.Equal(events, want)
}

// trySwap re-executes the schedule of events trace with events i and i+1
// swapped. feasible is false when the swapped order cannot be executed (the
// events do not commute operationally, or thread/object creation order
// shifted).
func trySwap(prog func(*sched.Thread), trace []sched.Event, i int) (res *sched.Result, feasible bool) {
	script := make([]sched.ThreadID, len(trace))
	for k, ev := range trace {
		script[k] = ev.TID
	}
	script[i], script[i+1] = script[i+1], script[i]
	want := append([]sched.Event(nil), trace...)
	want[i], want[i+1] = want[i+1], want[i]
	return runScripted(prog, script, want)
}

type swapStats struct {
	indep int // feasible independent swaps checked
	dep   int // feasible dependent swaps checked
}

// checkCommutation records one schedule of prog and sweeps every adjacent
// cross-thread pair, asserting the metamorphic property on each feasible
// swap.
func checkCommutation(t *testing.T, name string, prog func(*sched.Thread), seed int64, st *swapStats) {
	t.Helper()
	base, trace := runLogged(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
	// The unswapped script must reproduce the base schedule bit-exactly —
	// otherwise every "infeasible swap" skip below is suspect.
	script := make([]sched.ThreadID, len(trace))
	for k, ev := range trace {
		script[k] = ev.TID
	}
	rerun, ok := runScripted(prog, script, trace)
	if !ok || rerun.ClassHash != base.ClassHash || rerun.InterleavingHash != base.InterleavingHash {
		t.Fatalf("%s seed %d: scripted replay of the unswapped schedule diverged", name, seed)
	}
	for i := 0; i+1 < len(trace); i++ {
		a, b := trace[i], trace[i+1]
		if a.TID == b.TID {
			continue // program order: unswappable by definition
		}
		res, feasible := trySwap(prog, trace, i)
		if !feasible {
			continue
		}
		if dependent(a, b) {
			st.dep++
			if res.ClassHash == base.ClassHash {
				t.Fatalf("%s seed %d: swapping dependent events %d/%d (%v, %v) preserved class fingerprint %#x",
					name, seed, i, i+1, a, b, base.ClassHash)
			}
		} else {
			st.indep++
			if res.ClassHash != base.ClassHash {
				t.Fatalf("%s seed %d: swapping independent events %d/%d (%v, %v) changed class fingerprint %#x -> %#x",
					name, seed, i, i+1, a, b, base.ClassHash, res.ClassHash)
			}
			if res.InterleavingHash == base.InterleavingHash {
				t.Fatalf("%s seed %d: swapping events %d/%d did not change the order-sensitive fingerprint — the swap was a no-op", name, seed, i, i+1)
			}
		}
	}
}

// TestClassFingerprintCommutation drives the metamorphic property over
// both generator grammars and a sweep of program and schedule seeds, and
// requires the sweep to be non-vacuous in both directions (enough feasible
// independent and dependent swaps were actually exercised).
func TestClassFingerprintCommutation(t *testing.T) {
	st := &swapStats{}
	for seed := int64(1); seed <= 20; seed++ {
		for algSeed := int64(0); algSeed < 5; algSeed++ {
			s := seed*1009 + algSeed*31
			checkCommutation(t, "gen", progfuzz.Gen(seed, genConfig).Prog(), s, st)
			checkCommutation(t, "gensync", progfuzz.GenSync(seed, genSyncConfig).Prog(), s+7, st)
		}
	}
	if st.indep < 200 || st.dep < 30 {
		t.Fatalf("near-vacuous sweep: only %d independent and %d dependent feasible swaps checked", st.indep, st.dep)
	}
	t.Logf("checked %d independent and %d dependent adjacent swaps", st.indep, st.dep)
}

// TestCanonicalClassKeyJoinEdge pins the join edge of the oracle's
// dependence relation: a join and the joined thread's last event must not
// commute even though they share no object.
func TestCanonicalClassKeyJoinEdge(t *testing.T) {
	prog := func(root *sched.Thread) {
		x := root.NewVar("x", 0)
		h := root.Go(func(w *sched.Thread) { w.Yield(); _ = x.Load(w) })
		root.Yield()
		root.Join(h)
	}
	_, trace := runLogged(prog, nil, sched.Options{})
	var join, last sched.Event
	for _, ev := range trace {
		if ev.Kind == sched.OpJoin {
			join = ev
		}
	}
	if join.Kind != sched.OpJoin {
		t.Fatal("no join event recorded")
	}
	for _, ev := range trace {
		if ev.PathHash == join.ObjHash {
			last = ev
		}
	}
	if last.Kind == sched.OpInvalid {
		t.Fatal("join's ObjHash does not resolve to the joined thread's events — traces are not self-describing")
	}
	if !dependent(join, last) || !dependent(last, join) {
		t.Fatal("join edge missing from the dependence relation")
	}
}

// TestClassPartitionPartialVerdict: a violation of the bijection seen
// between two enumerated schedules is the verdict whether or not the
// enumeration ran to the end.
func TestClassPartitionPartialVerdict(t *testing.T) {
	write := func(path uint64) sched.Event {
		return sched.Event{PathHash: path, Kind: sched.OpWrite, Obj: 1, ObjHash: 7}
	}
	part := newClassPartition()
	// One class fingerprint over two traces that are not happens-before
	// equivalent: a false dedup.
	part.Events = []sched.Event{write(1), write(2)}
	part.EndSchedule(&sched.Result{ClassHash: 1})
	part.Events = []sched.Event{write(2), write(1)}
	part.EndSchedule(&sched.Result{ClassHash: 1})
	for _, exhausted := range []bool{true, false} {
		if _, err := part.verdict("merged", exhausted, Options{AllowPartial: true}); err == nil || !strings.Contains(err.Error(), "false dedup") {
			t.Errorf("exhausted=%v: verdict %v, want the false dedup", exhausted, err)
		}
	}
	if n, err := newClassPartition().verdict("empty", false, Options{AllowPartial: true}); err != nil || n != 0 {
		t.Errorf("a partial partition with no violation: %d classes, %v", n, err)
	}
	if _, err := newClassPartition().verdict("cut", false, Options{}); err == nil {
		t.Error("an unfinished enumeration without AllowPartial passed")
	}
}
