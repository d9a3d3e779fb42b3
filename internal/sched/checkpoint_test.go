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

// runFrom is pool.RunFrom from cp, in the form runLogged takes.
func runFrom(pool *Pool, cp *Checkpoint) func(func(*Thread), Algorithm, Options) *Result {
	return func(prog func(*Thread), alg Algorithm, opts Options) *Result {
		return pool.RunFrom(cp, prog, alg, opts)
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
// schedule bit-identical, event log included, to a plain one-shot Run of
// the same seed and to the slow loop's. Returns the checkpoint for further
// poking.
func checkpointedVsPlain(t *testing.T, prog func(*Thread), seeds int) *Checkpoint {
	t.Helper()
	pool := NewPool()
	defer pool.Close()
	capLog := new(EventLog)
	capRes, cp := pool.RunPrefix(prog, &rrIndex{}, Options{Base: Base{Seed: 1}, Tracer: capLog})
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	loggedEqual(t, "capture run", 1, loggedRun{capRes, capLog.Events}, runLogged(Run, prog, &rrIndex{}, Options{Base: Base{Seed: 1}}))
	if cp.Decisions() == 0 {
		t.Fatal("expected a non-empty forced prefix")
	}
	for seed := int64(2); seed < int64(2+seeds); seed++ {
		opts := Options{Base: Base{Seed: seed}}
		fast := runLogged(runFrom(pool, cp), prog, &rrIndex{}, opts)
		loggedEqual(t, "replayed vs full run", seed, fast, runLogged(Run, prog, &rrIndex{}, opts))
		opts.DisableBatching = true
		loggedEqual(t, "replayed vs slow loop", seed, fast, runLogged(Run, prog, &rrIndex{}, opts))
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
// the checkpoint (no buffer aliasing with the pool's recycled decision
// storage) nor change what RunFrom produces from it.
func TestCheckpointSurvivesPoolRecycling(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	_, cp := pool.RunPrefix(midCSProg, &rrIndex{}, Options{Base: Base{Seed: 1}})
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	forced := append([]ThreadID(nil), cp.forced...)
	hash, steps := cp.ilvHash, cp.steps

	nine := Options{Base: Base{Seed: 9}}
	want := runLogged(runFrom(pool, cp), midCSProg, &rrIndex{}, nine)

	// Churn the pool: more schedules of the same program, then a different
	// program (which repoints the pool and rebuilds its interned state).
	for seed := int64(20); seed < 30; seed++ {
		pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: seed}})
	}
	pool.Run(parkedSenderProg, &rrIndex{}, Options{Base: Base{Seed: 3}})
	pool.Close()
	pool.Run(parkedSenderProg, &rrIndex{}, Options{Base: Base{Seed: 4}})

	// The checkpoint must be bitwise intact...
	if cp.ilvHash != hash || cp.steps != steps || len(cp.forced) != len(forced) {
		t.Fatal("pool recycling mutated the checkpoint")
	}
	for i := range forced {
		if cp.forced[i] != forced[i] {
			t.Fatalf("pool recycling mutated cp.forced[%d]", i)
		}
	}
	// ...and still replay to the same result on the recycled pool.
	got := runLogged(runFrom(pool, cp), midCSProg, &rrIndex{}, nine)
	loggedEqual(t, "replay after recycling", 9, got, want)
	loggedEqual(t, "replay after recycling vs plain", 9, got, runLogged(Run, midCSProg, &rrIndex{}, nine))
}

// TestCheckpointInvalidUses pins the misuse panics: replaying an unsealed
// checkpoint and replaying with options incompatible with the capture (a
// step budget other than the capture run's).
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
		pool.RunFrom(cp, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 2, MaxSteps: 1000}})
	})
	mustPanic("unsealed checkpoint", func() {
		pool.RunFrom(&Checkpoint{open: true}, midCSProg, &rrIndex{}, Options{Base: Base{Seed: 2}})
	})
}

// wideProg has 71 threads, more than a word of the thread sets, and a
// forced prefix that spans them: the root holds the mutex through its
// spawns of 70 children that queue on it, so every decision is forced
// until it unlocks.
func wideProg(t *Thread) {
	m := t.NewMutex("m")
	v := t.NewVar("v", 0)
	m.Lock(t)
	hs := make([]*Handle, 70)
	for i := range hs {
		hs[i] = t.Go(func(w *Thread) {
			m.Lock(w)
			v.Add(w, 1)
			m.Unlock(w)
		})
	}
	for i := 0; i < 5; i++ {
		v.Add(t, 1)
	}
	m.Unlock(t)
	t.JoinAll(hs...)
}

func TestCheckpointWidePrefix(t *testing.T) {
	if cp := checkpointedVsPlain(t, wideProg, 6); cp.Decisions() != 7 {
		t.Fatalf("sealed %d forced decisions, want 7: the lock, five adds and the unlock", cp.Decisions())
	}
}

// freeFirstProg has no forced prefix: the root spawns both workers before
// its first event, so its first decision is among three threads.
func freeFirstProg(t *Thread) {
	v := t.NewVar("v", 0)
	a := t.Go(func(w *Thread) { v.Add(w, 1) })
	b := t.Go(func(w *Thread) { v.Add(w, 2) })
	v.Add(t, 4)
	t.JoinAll(a, b)
}

// TestNoPrefixNoCheckpoint holds that a program whose first decision is
// free gets no checkpoint, and that asking for one costs nothing RunInto
// does not: the capture allocates only at a forced decision.
func TestNoPrefixNoCheckpoint(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	var res Result
	var log EventLog
	opts := Options{Base: Base{Seed: 1}}
	logged := opts
	logged.Tracer = &log
	if cp := pool.RunPrefixInto(&res, freeFirstProg, &rrIndex{}, logged); cp != nil {
		t.Fatalf("a program without a forced prefix captured %d forced decisions", cp.Decisions())
	}
	loggedEqual(t, "capture run", 1, loggedRun{&res, log.Events}, runLogged(Run, freeFirstProg, &rrIndex{}, opts))
	into := testing.AllocsPerRun(100, func() { pool.RunInto(&res, freeFirstProg, &rrIndex{}, opts) })
	prefix := testing.AllocsPerRun(100, func() { pool.RunPrefixInto(&res, freeFirstProg, &rrIndex{}, opts) })
	if prefix != into {
		t.Fatalf("RunPrefixInto allocates %.1f objects a schedule, RunInto %.1f", prefix, into)
	}
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
	five := Options{Base: Base{Seed: 5}}
	loggedEqual(t, "nil checkpoint", 5, runLogged(runFrom(pool, nil), midCSProg, &rrIndex{}, five), runLogged(Run, midCSProg, &rrIndex{}, five))
}
