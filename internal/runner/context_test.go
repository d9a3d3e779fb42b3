package runner

// Cancellation contract: ctx is consulted between schedules (and between
// sessions), never inside one, so a cancelled batch returns the context's
// error — no panic, no torn schedule — and an uncancelled context changes
// nothing.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"surw/internal/sched"
)

func ctxTarget() Target {
	return Target{
		Name: "ctx/racy",
		Prog: func(t *sched.Thread) {
			c := t.NewVar("c", 0)
			h := t.Go(func(w *sched.Thread) { c.Add(w, 1) })
			c.Add(t, 1)
			t.Join(h)
		},
	}
}

func TestRunTargetContextBackgroundMatchesRunTarget(t *testing.T) {
	cfg := Config{Sessions: 2, Limit: 50, Seed: 5}
	a, err := RunTarget(ctxTarget(), "RW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTargetContext(context.Background(), ctxTarget(), "RW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("RunTargetContext(Background) diverged from RunTarget")
	}
}

func TestRunTargetContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunTargetContext(ctx, ctxTarget(), "RW", Config{Sessions: 2, Limit: 50, Seed: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunSessionMatchesBatchSession(t *testing.T) {
	cfg := Config{Sessions: 3, Limit: 80, Seed: 9, Coverage: true}
	batch, err := RunTarget(ctxTarget(), "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Sessions {
		solo, err := RunSession(context.Background(), ctxTarget(), "URW", cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if !solo.equal(&batch.Sessions[i]) {
			t.Fatalf("RunSession(%d) diverged from batch session %d", i, i)
		}
	}
}

func TestRunSessionCancelledMidSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tgt := ctxTarget()
	runs := 0
	prog := tgt.Prog
	tgt.Prog = func(th *sched.Thread) {
		runs++
		if runs == 3 {
			cancel()
		}
		prog(th)
	}
	_, err := RunSession(ctx, tgt, "RW", Config{Limit: 1000, Seed: 1}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs >= 1000 {
		t.Fatal("cancellation did not stop the schedule loop")
	}
}

func TestKeyForMatchesEngineNormalization(t *testing.T) {
	// KeyFor must normalize exactly like RunTarget so plans built from it
	// hit the store records a local batch writes.
	k := KeyFor(ctxTarget(), "SURW", Config{Coverage: true}, 2)
	want := SessionKey{
		Target: "ctx/racy", Algorithm: "SURW", Limit: 1000, Session: 2,
		Coverage: true, CoverageEvery: 1000/50 + 1,
	}
	if k != want {
		t.Fatalf("KeyFor = %+v, want %+v", k, want)
	}
}

// The driver's Δ stream is one generator re-seeded per session, not one
// allocated per session: after Seed(b) a generator that has been drawn
// from must continue exactly as a fresh rand.New(rand.NewSource(b)) does.
func TestDeltaStreamReseedEqualsFreshSource(t *testing.T) {
	var d Driver
	for _, b := range []int64{0, 1, -1, 42, 23 + 5*1_000_003, 1 << 40} {
		fresh := rand.New(rand.NewSource(b))
		used := d.deltaStream(b) // the first call builds it, every later one re-seeds
		for i := 0; i < 1000; i++ {
			n := 1 + i%97
			if got, want := used.Intn(n), fresh.Intn(n); got != want {
				t.Fatalf("seed %d, draw %d: Intn(%d) = %d on the re-seeded stream, %d on a fresh one", b, i, n, got, want)
			}
		}
	}
}

// The cache keeps its warm workers apart by target: sessions of one target
// share a worker, a second target gets its own, so a pool's interned names
// and spawn memo are only ever one program's.
func TestWorkerCacheKeyedByTarget(t *testing.T) {
	wc := NewWorkerCache()
	defer wc.Close()
	other := ctxTarget()
	other.Name = "ctx/other"
	for _, tgt := range []Target{ctxTarget(), other, ctxTarget()} {
		if _, err := wc.RunSession(context.Background(), tgt, "RW", Config{Limit: 5, Seed: 5}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(wc.free) != 2 || len(wc.free["ctx/racy"]) != 1 || len(wc.free["ctx/other"]) != 1 {
		t.Fatalf("three sequential sessions over two targets left %v, want one warm worker per target", wc.free)
	}
	// What RunCells does once a target's last session has landed.
	wc.drop("ctx/racy")
	if _, kept := wc.free["ctx/racy"]; kept || len(wc.free["ctx/other"]) != 1 {
		t.Fatalf("dropping one target left %v, want the other target's worker alone", wc.free)
	}
}
