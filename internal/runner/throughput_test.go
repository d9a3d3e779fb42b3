package runner_test

import (
	"testing"

	"surw/internal/runner"
	"surw/internal/sctbench"
)

// TestThroughputRatesOnlyExecutedSchedules: a batch reports the schedules
// it ran and the time it spent on them, which the surw bench throughput
// footers rate. A batch served whole from the store ran none — its Elapsed
// is the lookups' few microseconds, and stored schedules over that is not a
// throughput — and a batch over a half-filled store ran the fresh half only.
func TestThroughputRatesOnlyExecutedSchedules(t *testing.T) {
	tgt, ok := sctbench.ByName("Fig1/bitshift_3")
	if !ok {
		t.Fatal("unknown target")
	}
	schedules := func(r *runner.Result) (n int) {
		for _, s := range r.Sessions {
			n += s.Schedules
		}
		return n
	}
	cfg := runner.Config{Sessions: 2, Limit: 20, Seed: 7, Workers: 1, Store: newMemStore()}
	fresh, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Executed != 40 || schedules(fresh) != 40 || fresh.Elapsed <= 0 {
		t.Fatalf("a fresh batch of 2×20 schedules: Executed %d of %d in %v", fresh.Executed, schedules(fresh), fresh.Elapsed)
	}

	stored, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(stored) || schedules(stored) != 40 {
		t.Fatal("resumed batch diverged")
	}
	if stored.Executed != 0 {
		t.Fatalf("a batch served from the store: Executed %d, want 0", stored.Executed)
	}

	cfg.Sessions = 4 // sessions 0 and 1 are stored, 2 and 3 are not
	half, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if schedules(half) != 80 || half.Executed != 40 || half.Elapsed <= 0 {
		t.Fatalf("a half-stored batch: %d schedules, %d executed in %v, want 80 and 40", schedules(half), half.Executed, half.Elapsed)
	}
}
