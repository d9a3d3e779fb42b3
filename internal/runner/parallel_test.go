// External test package: sctbench imports runner, so pulling real SCTBench
// targets into these tests requires runner_test.
package runner_test

import (
	"reflect"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// regressionAlgorithms is every registered algorithm family: the seven
// Table 4 names plus URW.
func regressionAlgorithms() []string {
	return append(core.AllNames(), "URW")
}

// regressionTargets picks SCTBench targets with distinct synchronization
// idioms: pure shared-variable racing, mutex+condvar signalling, and a
// lock-discipline bug.
func regressionTargets(t *testing.T) []runner.Target {
	var out []runner.Target
	for _, name := range []string{"CS/reorder_4", "CS/twostage", "CS/wronglock_3"} {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			t.Fatalf("unknown SCTBench target %q", name)
		}
		out = append(out, tgt)
	}
	return out
}

// TestParallelSessionsMatchSequential is the paper-results safety net for
// the parallel runner: for every registered algorithm on real SCTBench
// targets, RunTarget with Workers: 4 must produce a Result byte-identical
// to Workers: 1 — FirstBug, Bugs, coverage maps, series, everything.
func TestParallelSessionsMatchSequential(t *testing.T) {
	targets := regressionTargets(t)
	algs := regressionAlgorithms()
	if testing.Short() {
		targets = targets[:2]
		algs = []string{"SURW", "POS", "RW"}
	}
	for _, tgt := range targets {
		for _, alg := range algs {
			cfg := runner.Config{
				Sessions:      4,
				Limit:         60,
				Seed:          23,
				Coverage:      true,
				CoverageEvery: 20,
			}
			cfg.Workers = 1
			seq, err := runner.RunTarget(tgt, alg, cfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", tgt.Name, alg, err)
			}
			cfg.Workers = 4
			par, err := runner.RunTarget(tgt, alg, cfg)
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", tgt.Name, alg, err)
			}
			// Elapsed is observational wall-clock, the one field allowed
			// to differ across worker counts.
			seq.Elapsed, par.Elapsed = 0, 0
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s/%s: Workers=4 diverged from Workers=1", tgt.Name, alg)
				for s := range seq.Sessions {
					if !reflect.DeepEqual(seq.Sessions[s], par.Sessions[s]) {
						t.Errorf("  session %d:\n  seq: %+v\n  par: %+v",
							s, seq.Sessions[s], par.Sessions[s])
					}
				}
			}
		}
	}
}

// TestParallelEntropiesMatchSequential pins the derived statistics too:
// identical coverage maps must yield identical entropy summaries.
func TestParallelEntropiesMatchSequential(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	cfg := runner.Config{Sessions: 3, Limit: 80, Seed: 5, Coverage: true}
	cfg.Workers = 1
	seq, err := runner.RunTarget(tgt, "SURW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := runner.RunTarget(tgt, "SURW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	si, sb := seq.EntropySummary()
	pi, pb := par.EntropySummary()
	if si != pi || sb != pb {
		t.Fatalf("entropy summaries diverged: %+v/%+v vs %+v/%+v", si, sb, pi, pb)
	}
	if !reflect.DeepEqual(seq.MeanCoverageSeries(), par.MeanCoverageSeries()) {
		t.Fatal("mean coverage series diverged")
	}
}

// TestWorkerDefaultMatchesExplicit checks the Workers: 0 (one per CPU)
// default is just another worker count, not a separate code path.
func TestWorkerDefaultMatchesExplicit(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	cfg := runner.Config{Sessions: 4, Limit: 50, Seed: 11, StopAtFirstBug: true}
	cfg.Workers = 0
	def, err := runner.RunTarget(tgt, "RW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	expl, err := runner.RunTarget(tgt, "RW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	def.Elapsed, expl.Elapsed = 0, 0
	if !reflect.DeepEqual(def, expl) {
		t.Fatal("Workers: 0 diverged from an explicit worker count")
	}
}
