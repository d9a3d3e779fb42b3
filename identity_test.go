package surw_test

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"surw"
	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/runner"
)

// The library runs the runner's loop: for the same program, algorithm and
// seed, surw.Test is session 0 of a stop-at-first-bug batch — as many
// schedules, the bug at the same one — and surw.Explore is session 0 of a
// coverage batch, tally for tally. That includes the algorithms that read
// no counts: neither side takes, or charges, a census for them. LightFTP
// carries both a Select and a TraceFilter, so Options.Select and
// Options.TraceFilter are held to the runner's target fields too.
func TestLibraryIsTheRunnersSessionZero(t *testing.T) {
	const limit = 150
	hunts, found := 0, 0
	seeds := []int64{1, 7, 23}
	for _, in := range []struct {
		name  string
		seeds []int64
	}{{"CS/reorder_10", seeds}, {"CS/twostage_20", seeds}, {"CS/bluetooth_driver", seeds}, {"LightFTP@1", []int64{1}}} {
		name := in.name
		tgt, ok := experiments.ByName(name)
		if !ok {
			t.Fatalf("no target %s", name)
		}
		for _, alg := range append(core.AllNames(), "URW") {
			for _, seed := range in.seeds {
				cell := fmt.Sprintf("%s/%s seed %d", name, alg, seed)
				opts := surw.Options{
					Base:        surw.Base{Seed: seed, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps},
					Schedules:   limit,
					Algorithm:   alg,
					Select:      tgt.Select,
					TraceFilter: tgt.TraceFilter,
				}

				hunt, err := runner.RunSession(context.Background(), tgt, alg, runner.Config{Limit: limit, Seed: seed, StopAtFirstBug: true}, 0)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := surw.Test(tgt.Prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				hunts++
				if rep.Found() {
					found++
				}
				if rep.Schedules != hunt.Schedules || rep.Schedule != hunt.FirstBug {
					t.Errorf("%s: Test ran %d schedules, bug at %d; the runner's session 0 ran %d, bug at %d",
						cell, rep.Schedules, rep.Schedule, hunt.Schedules, hunt.FirstBug)
				}

				sample, err := runner.RunSession(context.Background(), tgt, alg, runner.Config{Limit: limit, Seed: seed, Coverage: true}, 0)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := surw.Explore(tgt.Prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Schedules != sample.Schedules ||
					!maps.Equal(ex.Interleavings, sample.Cov.Interleavings) ||
					!maps.Equal(ex.Behaviors, sample.Cov.Behaviors) ||
					!maps.Equal(ex.Failures, sample.Bugs) {
					t.Errorf("%s: Explore's tallies (%d schedules, %d interleavings, failures %v) are not the runner's session 0's (%d, %d, %v)",
						cell, ex.Schedules, len(ex.Interleavings), ex.Failures, sample.Schedules, len(sample.Cov.Interleavings), sample.Bugs)
				}
			}
		}
	}
	if found < 20 {
		t.Errorf("only %d of %d hunts found a bug: too few first-bug indices compared", found, hunts)
	}
}
