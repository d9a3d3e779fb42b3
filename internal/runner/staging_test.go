package runner_test

// The observers' private staging — MetricsTracer's per-schedule counts and
// the per-worker atlas accumulator — must be invisible from outside: by the
// time RunTarget or RunSession returns, whether it ran to the end or was
// cancelled, the shared Metrics and Atlas hold every schedule that ran,
// exactly once, at any worker count.

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"surw/internal/atlas"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// observe runs cfg with fresh observers and returns what they hold after.
func observe(t *testing.T, ctx context.Context, tgt runner.Target, alg string, cfg runner.Config) (obs.Snapshot, atlas.CellSnapshot, error) {
	t.Helper()
	cfg.Metrics, cfg.Atlas = obs.NewMetrics(), atlas.New()
	_, err := runner.RunTargetContext(ctx, tgt, alg, cfg)
	cells := cfg.Atlas.Snapshot().Cells
	if len(cells) != 1 {
		t.Fatalf("want one atlas cell, got %d", len(cells))
	}
	cells[0].Uniformity = nil // fed per schedule under the cell's own lock, not staged
	return cfg.Metrics.Snapshot(), cells[0], err
}

func TestStagedObserversMatchAcrossWorkerCounts(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	for _, alg := range []string{"RW", "SURW"} {
		// Limit past atlasPublishEvery, so both the interval drain and the
		// end-of-session drain run.
		cfg := runner.Config{Sessions: 4, Limit: 300, Seed: 31, Workers: 1}
		m1, a1, err := observe(t, context.Background(), tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 2
		m2, a2, err := observe(t, context.Background(), tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m1.Schedules != 4*300 || m1.Schedules != m2.Schedules || m1.Steps != m2.Steps {
			t.Fatalf("%s: schedules/steps %d/%d at one worker, %d/%d at two", alg, m1.Schedules, m1.Steps, m2.Schedules, m2.Steps)
		}
		if len(m1.Algorithms) != 1 || m1.Algorithms[0].Decisions == 0 {
			t.Fatalf("%s: no decision histogram: %+v", alg, m1.Algorithms)
		}
		if !reflect.DeepEqual(m1.Algorithms, m2.Algorithms) {
			t.Fatalf("%s: decision histograms differ\nworkers 1: %+v\nworkers 2: %+v", alg, m1.Algorithms, m2.Algorithms)
		}
		if a1.Schedules != 4*300 || a1.Decisions == 0 || len(a1.Grids) == 0 {
			t.Fatalf("%s: atlas holds %d schedules, %d decisions, %d grids; want %d schedules and a map", alg, a1.Schedules, a1.Decisions, len(a1.Grids), 4*300)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("%s: atlas cells differ: workers 1 holds %d schedules / %d decisions, workers 2 %d / %d (or the same totals spread differently over depths and grid buckets)",
				alg, a1.Schedules, a1.Decisions, a2.Schedules, a2.Decisions)
		}
	}
}

// TestCancelledSessionPublishesWhatRan cancels a batch from inside its
// 700th schedule. Every session stops at its next schedule boundary, and
// the observers must then hold exactly the schedules that started — the
// ones published at the interval and the remainder on the way out, none
// lost and none twice.
func TestCancelledSessionPublishesWhatRan(t *testing.T) {
	base, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		tgt := base
		tgt.Prog = func(th *sched.Thread) {
			if ran.Add(1) == 700 {
				cancel()
			}
			base.Prog(th)
		}
		// RW takes no census, so every Prog call is one schedule.
		m, a, err := observe(t, ctx, tgt, "RW", runner.Config{Sessions: 2, Limit: 1000, Seed: 3, Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n < 700 || n >= 2000 {
			t.Fatalf("workers %d: %d schedules ran; cancellation did not land mid-batch", workers, n)
		}
		if m.Schedules != ran.Load() || a.Schedules != uint64(ran.Load()) {
			t.Fatalf("workers %d: %d schedules ran, metrics hold %d, atlas holds %d", workers, ran.Load(), m.Schedules, a.Schedules)
		}
		var depthSum uint64
		for _, d := range a.Depths {
			depthSum += d.Decisions
		}
		if a.Decisions == 0 || depthSum != a.Decisions || m.Algorithms[0].Decisions != int64(a.Decisions) {
			t.Fatalf("workers %d: decisions disagree: atlas %d, its depth profile %d, metrics %d", workers, a.Decisions, depthSum, m.Algorithms[0].Decisions)
		}
	}
}
