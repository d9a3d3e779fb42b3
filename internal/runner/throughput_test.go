package runner_test

import (
	"testing"

	"surw/internal/runner"
	"surw/internal/sctbench"
)

// TestThroughputRatesOnlyExecutedSchedules: a batch's schedules/s is over
// the schedules it ran. A batch served whole from the store ran none and
// has no rate — its Elapsed is the lookups' few microseconds, and stored
// schedules over that is not a throughput — and a batch over a half-filled
// store rates the fresh half only.
func TestThroughputRatesOnlyExecutedSchedules(t *testing.T) {
	tgt, ok := sctbench.ByName("Fig1/bitshift_3")
	if !ok {
		t.Fatal("unknown target")
	}
	cfg := runner.Config{Sessions: 2, Limit: 20, Seed: 7, Workers: 1, Store: newMemStore()}
	fresh, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Executed != 40 || fresh.Executed != fresh.TotalSchedules() || fresh.SchedulesPerSecond() <= 0 {
		t.Fatalf("a fresh batch of 2×20 schedules: Executed %d, %.0f schedules/s", fresh.Executed, fresh.SchedulesPerSecond())
	}

	stored, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(stored) || stored.TotalSchedules() != 40 {
		t.Fatal("resumed batch diverged")
	}
	if stored.Executed != 0 || stored.SchedulesPerSecond() != 0 {
		t.Fatalf("a batch served from the store: Executed %d, %.0f schedules/s, want 0 and 0", stored.Executed, stored.SchedulesPerSecond())
	}

	cfg.Sessions = 4 // sessions 0 and 1 are stored, 2 and 3 are not
	half, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if half.TotalSchedules() != 80 || half.Executed != 40 {
		t.Fatalf("a half-stored batch: %d schedules, %d executed, want 80 and 40", half.TotalSchedules(), half.Executed)
	}
	if got, want := half.SchedulesPerSecond(), 40/half.Elapsed.Seconds(); got != want {
		t.Fatalf("a half-stored batch rates %.0f schedules/s, want the fresh half's %.0f", got, want)
	}
}
