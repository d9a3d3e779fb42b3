package sched

import (
	"math/rand"
	"testing"
)

// rrIndex is a deterministic IndexChooser that cycles through enabled
// positions, giving checkpoint tests real (non-leftmost) free choices
// without pulling in the algorithm packages.
type rrIndex struct{ n int }

func (*rrIndex) Name() string                   { return "rr" }
func (*rrIndex) Begin(*ProgramInfo, *rand.Rand) {}

func (a *rrIndex) Next(st *State) ThreadID {
	e := st.Enabled()
	return e[a.NextIndex(len(e))]
}

func (a *rrIndex) NextIndex(n int) int {
	a.n++
	return a.n % n
}

func (*rrIndex) Observe(Event, *State) {}

// checkpointEqual fails the test unless a and b are observably identical,
// including their recorded traces.
func checkpointEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.InterleavingHash != b.InterleavingHash {
		t.Fatalf("%s: fingerprint %#x vs %#x", label, a.InterleavingHash, b.InterleavingHash)
	}
	if a.Steps != b.Steps || a.Behavior != b.Behavior || a.BugID() != b.BugID() || a.Truncated != b.Truncated {
		t.Fatalf("%s: results differ: %+v vs %+v", label, a, b)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace[%d] %+v vs %+v", label, i, a.Trace[i], b.Trace[i])
		}
	}
}

// midCSProg seals its forced prefix mid-critical-section: the root is
// still holding the mutex when the spawned child's first event introduces
// the first free choice, so RunFrom must restore held-lock state (owner,
// heldMutex, the child's later gating) from inside the prefix.
func midCSProg(t *Thread) {
	m := t.NewMutex("m")
	v := t.NewVar("v", 0)
	m.Lock(t)
	for i := 0; i < 8; i++ {
		v.Add(t, 1)
	}
	h := t.Go(func(w *Thread) {
		v.Add(w, 100)
		m.Lock(w)
		v.Add(w, 1000)
		m.Unlock(w)
	})
	v.Add(t, 1)
	v.Add(t, 1)
	m.Unlock(t)
	t.Join(h)
	t.SetBehavior("v=" + itoa(v.Load(t)))
}

// parkedSenderProg checkpoints a schedule whose free phase parks channel
// senders: the root's prologue is the forced prefix (it runs alone), the
// seal lands on the fork, and the replayed suffix contains schedules where
// the unbuffered sender sleeps in the channel's rendezvous wait until the
// root receives. Replay must rebuild the parked sender's sleeping state
// (cond waiter registration, mutex gating) event-for-event.
func parkedSenderProg(t *Thread) {
	c := NewChan[int](t, "c", 0)
	v := t.NewVar("v", 0)
	for i := 0; i < 6; i++ {
		v.Add(t, 1)
	}
	s := t.Go(func(w *Thread) {
		c.Send(w, 41)
		v.Add(w, 1)
	})
	u := t.Go(func(w *Thread) {
		v.Add(w, 7)
	})
	x, _ := c.Recv(t)
	v.Add(t, int64(x))
	t.JoinAll(s, u)
	t.SetBehavior("v=" + itoa(v.Load(t)))
}

// sleepingSendersProg drives two senders against a capacity-1 channel, so
// replayed schedules include states with both senders asleep in
// notFull.Wait at once while the root drains; the signal wakes exactly one
// and the other must stay parked, identically under checkpointed replay.
func sleepingSendersProg(t *Thread) {
	c := NewChan[int](t, "c", 1)
	v := t.NewVar("v", 0)
	for i := 0; i < 5; i++ {
		v.Add(t, 1)
	}
	s1 := t.Go(func(w *Thread) { c.Send(w, 1); v.Add(w, 10) })
	s2 := t.Go(func(w *Thread) { c.Send(w, 2); v.Add(w, 20) })
	s3 := t.Go(func(w *Thread) { c.Send(w, 3); v.Add(w, 30) })
	sum := int64(0)
	for i := 0; i < 3; i++ {
		x, _ := c.Recv(t)
		sum += int64(x)
	}
	v.Add(t, sum)
	t.JoinAll(s1, s2, s3)
	t.SetBehavior("v=" + itoa(v.Load(t)))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// checkpointedVsPlain captures a prefix from prog and holds every RunFrom
// schedule bit-identical (trace included) to a plain one-shot Run of the
// same seed. Returns the checkpoint for further poking.
func checkpointedVsPlain(t *testing.T, prog func(*Thread), seeds int) *Checkpoint {
	t.Helper()
	pool := NewPool()
	defer pool.Close()
	opts := func(seed int64) Options {
		return Options{Base: Base{Seed: seed}, RecordTrace: true}
	}
	capRes, cp := pool.RunPrefix(prog, &rrIndex{}, opts(1))
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	checkpointEqual(t, "capture run", capRes, Run(prog, &rrIndex{}, opts(1)))
	if cp.Decisions() == 0 {
		t.Fatal("expected a non-empty forced prefix")
	}
	for seed := int64(2); seed < int64(2+seeds); seed++ {
		fast := pool.RunFrom(cp, prog, &rrIndex{}, opts(seed))
		plain := Run(prog, &rrIndex{}, opts(seed))
		checkpointEqual(t, "replayed run", fast, plain)
	}
	return cp
}

func TestCheckpointMidCriticalSection(t *testing.T) {
	checkpointedVsPlain(t, midCSProg, 12)
}

func TestCheckpointParkedChannelSender(t *testing.T) {
	checkpointedVsPlain(t, parkedSenderProg, 12)
}

func TestCheckpointSleepingSenders(t *testing.T) {
	checkpointedVsPlain(t, sleepingSendersProg, 12)
}

// TestCheckpointSurvivesPoolRecycling holds that a sealed checkpoint is
// immutable under pool reuse: running other schedules, a different
// program, and a Reset on the pool that captured it must neither mutate
// the checkpoint (no buffer aliasing with the pool's recycled trace and
// decision storage) nor change what RunFrom produces from it.
func TestCheckpointSurvivesPoolRecycling(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	opts := Options{Base: Base{Seed: 1}, RecordTrace: true}
	_, cp := pool.RunPrefix(midCSProg, &rrIndex{}, opts)
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	forced := append([]ThreadID(nil), cp.forced...)
	trace := append([]Event(nil), cp.trace...)
	hash, steps := cp.ilvHash, cp.steps

	want := pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 9}, RecordTrace: true})

	// Churn the pool: more schedules of the same program, then a different
	// program (which repoints the pool and rebuilds its interned state).
	for seed := int64(20); seed < 30; seed++ {
		pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: seed}, RecordTrace: true})
	}
	pool.Run(parkedSenderProg, &rrIndex{}, Options{Base: Base{Seed: 3}, RecordTrace: true})
	pool.Reset()
	pool.Run(parkedSenderProg, &rrIndex{}, Options{Base: Base{Seed: 4}, RecordTrace: true})

	// The checkpoint must be bitwise intact...
	if cp.ilvHash != hash || cp.steps != steps || len(cp.forced) != len(forced) || len(cp.trace) != len(trace) {
		t.Fatal("pool recycling mutated the checkpoint")
	}
	for i := range forced {
		if cp.forced[i] != forced[i] {
			t.Fatalf("pool recycling mutated cp.forced[%d]", i)
		}
	}
	for i := range trace {
		if cp.trace[i] != trace[i] {
			t.Fatalf("pool recycling mutated cp.trace[%d]", i)
		}
	}
	// ...and still replay to the same result on the recycled pool.
	got := pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 9}, RecordTrace: true})
	checkpointEqual(t, "replay after recycling", got, want)
	checkpointEqual(t, "replay after recycling vs plain", got, Run(midCSProg, &rrIndex{}, Options{Base: Base{Seed: 9}, RecordTrace: true}))
}

// TestCheckpointInvalidUses pins the misuse panics: replaying an unsealed
// checkpoint and replaying with options incompatible with the capture.
func TestCheckpointInvalidUses(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	_, cp := pool.RunPrefix(midCSProg, &rrIndex{}, Options{Base: Base{Seed: 1}})
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		f()
	}
	mustPanic("incompatible options", func() {
		pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 2}, RecordTrace: true})
	})
	mustPanic("unsealed checkpoint", func() {
		pool.RunFrom(&Checkpoint{open: true}, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 2}})
	})
}

// TestCheckpointSlowPathDegrades holds the documented degradations: a
// capture under DisableBatching yields no checkpoint, and RunFrom with a
// nil checkpoint still runs correctly in full.
func TestCheckpointSlowPathDegrades(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	_, cp := pool.RunPrefix(midCSProg, &rrIndex{}, Options{Base: Base{Seed: 1}, DisableBatching: true})
	if cp != nil {
		t.Fatal("slow path must not capture a checkpoint")
	}
	res := pool.RunFrom(nil, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 5}, RecordTrace: true})
	checkpointEqual(t, "nil checkpoint", res, Run(midCSProg, &rrIndex{}, Options{Base: Base{Seed: 5}, RecordTrace: true}))
}
