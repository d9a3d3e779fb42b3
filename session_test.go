package surw

// Tests for the Session driver: the engine Test, Explore, and Replay
// delegate to. The equivalence tests pin the redesign's core contract —
// driving a Session by hand is observably identical to the historical
// entry points — and the context tests pin graceful cancellation:
// a cancelled run returns partial results, never a panic.

import (
	"context"
	"errors"
	"testing"
)

func TestSessionStepwiseMatchesTest(t *testing.T) {
	opts := Options{Base: Base{Seed: 3}, Schedules: 500}
	rep, err := Test(racyProg, opts)
	if err != nil || !rep.Found() {
		t.Fatalf("setup failed: %v %+v", err, rep)
	}

	s, err := NewSession(racyProg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 500 {
		t.Fatalf("Remaining = %d, want 500", s.Remaining())
	}
	for s.Remaining() > 0 {
		res, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if res.Buggy() {
			if got := s.Index() + 1; got != rep.Schedule {
				t.Fatalf("stepwise found bug at schedule %d, Test at %d", got, rep.Schedule)
			}
			if s.LastSeed() != rep.Seed {
				t.Fatalf("stepwise seed %d, Test seed %d", s.LastSeed(), rep.Seed)
			}
			if s.Delta() != rep.Delta {
				t.Fatalf("stepwise Δ %q, Test Δ %q", s.Delta(), rep.Delta)
			}
			return
		}
	}
	t.Fatal("stepwise session never found the bug Test found")
}

func TestSessionScheduleSeedDerivation(t *testing.T) {
	s, err := NewSession(cleanProg, Options{Base: Base{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	// The affine derivation is part of the API contract: distributed
	// workers and replay tooling address schedules by index alone.
	for i := 0; i < 5; i++ {
		want := int64(7) + int64(i)*2_000_033 + 1
		if got := s.ScheduleSeed(i); got != want {
			t.Fatalf("ScheduleSeed(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.LastSeed() != s.ScheduleSeed(0) {
		t.Fatalf("LastSeed = %d, want schedule 0's seed %d", s.LastSeed(), s.ScheduleSeed(0))
	}
}

func TestSessionReplayMatchesReplay(t *testing.T) {
	opts := Options{Base: Base{Seed: 3}, Schedules: 500}
	rep, err := Test(racyProg, opts)
	if err != nil || !rep.Found() {
		t.Fatalf("setup failed: %v %+v", err, rep)
	}
	old, err := Replay(racyProg, rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(racyProg, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Replay(rep.Schedule, rep.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterleavingHash != old.InterleavingHash || res.BugID() != old.BugID() {
		t.Fatalf("Session.Replay diverged from Replay: %016x vs %016x",
			res.InterleavingHash, old.InterleavingHash)
	}
}

func TestSessionProfileExposed(t *testing.T) {
	s, err := NewSession(racyProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Profile() == nil || s.Profile().Info.NumThreads() != 3 {
		t.Fatalf("session profile missing or wrong: %+v", s.Profile())
	}
}

func TestTestContextCancelledReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first schedule
	rep, err := TestContext(ctx, cleanProg, Options{Schedules: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled Test returned a nil report, want a partial one")
	}
	if rep.Schedules != 0 || rep.Found() {
		t.Fatalf("pre-cancelled run still ran schedules: %+v", rep)
	}
}

func TestTestContextCancelMidHunt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	// Cancel from inside the program under test after a few schedules:
	// cancellation lands between schedules, and the completed ones stand.
	prog := func(th *Thread) {
		ran++
		if ran == 4 {
			cancel()
		}
		cleanProg(th)
	}
	rep, err := TestContext(ctx, prog, Options{Schedules: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 4 runs: 1 profiling + 3 testing schedules, cancelled before the 4th.
	if rep.Schedules != 3 {
		t.Fatalf("partial report has %d schedules, want 3", rep.Schedules)
	}
}

func TestExploreContextCancelledReturnsPartialTallies(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := ExploreContext(ctx, cleanProg, Options{Schedules: 100, Algorithm: "RW"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ex == nil || ex.Schedules != 0 {
		t.Fatalf("cancelled Explore = %+v, want empty partial tallies", ex)
	}
}

func TestSessionNextAfterCancelKeepsReturningError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSession(cleanProg, Options{Schedules: 10, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if s.Index() != 1 {
		t.Fatalf("cancelled session index = %d, want 1", s.Index())
	}
}

// A closed Session has handed its worker back, and another session may
// hold it by now: a second Close does nothing, and any other use panics
// rather than drive a worker that is no longer the session's.
func TestSessionClosedFailsLoudly(t *testing.T) {
	s, err := NewSession(racyProg, Options{Base: Base{Seed: 3}, Schedules: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	for name, use := range map[string]func(){
		"Next":      func() { s.Next() },
		"Profile":   func() { s.Profile() },
		"Remaining": func() { s.Remaining() },
		"Replay":    func() { s.Replay(2, 0) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "surw: Session used after Close" {
					t.Errorf("%s after Close: recovered %v, want the use-after-Close panic", name, r)
				}
			}()
			use()
		}()
	}
}
