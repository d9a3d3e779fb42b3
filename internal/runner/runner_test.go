package runner

import (
	"testing"

	"surw/internal/sched"
	"surw/internal/stats"
)

// raceTarget loses an update under some schedules and asserts it didn't.
func raceTarget() Target {
	return Target{
		Name: "test/lost-update",
		Prog: func(t *sched.Thread) {
			c := t.NewVar("c", 0)
			inc := func(w *sched.Thread) { c.Store(w, c.Load(w)+1) }
			h1, h2 := t.Go(inc), t.Go(inc)
			t.Join(h1)
			t.Join(h2)
			v := c.Load(t)
			t.SetBehavior(map[int64]string{1: "lost", 2: "ok"}[v])
			t.Assert(v == 2, "lost-update")
		},
	}
}

// cleanTarget never fails.
func cleanTarget() Target {
	return Target{
		Name: "test/clean",
		Prog: func(t *sched.Thread) {
			c := t.NewVar("c", 0)
			h := t.Go(func(w *sched.Thread) { c.Add(w, 1) })
			c.Add(t, 1)
			t.Join(h)
			t.SetBehavior("done")
		},
	}
}

func TestRunTargetFindsBug(t *testing.T) {
	for _, alg := range []string{"SURW", "PCT-3", "POS", "RW", "N-U", "N-S"} {
		res, err := RunTarget(raceTarget(), alg, Config{
			Sessions: 3, Limit: 300, Seed: 11, StopAtFirstBug: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.FoundAll() {
			t.Fatalf("%s: not all sessions found the lost update", alg)
		}
		sum, found := res.FirstBugSummary()
		if found != 3 || sum.Mean < 1 {
			t.Fatalf("%s: summary %+v found=%d", alg, sum, found)
		}
		if !res.DistinctBugs()["lost-update"] {
			t.Fatalf("%s: bug id missing", alg)
		}
	}
}

func TestProfiledAlgorithmsChargeTrialRun(t *testing.T) {
	// A bug found on the very first schedule costs 2 for SURW (profiling
	// run + schedule) but 1 for RW. Run many sessions and compare minima.
	cfgs := Config{Sessions: 20, Limit: 50, Seed: 3, StopAtFirstBug: true}
	surw, err := RunTarget(raceTarget(), "SURW", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	min := 1 << 30
	for _, s := range surw.Sessions {
		if s.FirstBug >= 0 && s.FirstBug < min {
			min = s.FirstBug
		}
	}
	if min < 2 {
		t.Fatalf("SURW first-bug = %d; must include the profiling run", min)
	}
}

func TestCleanTargetNoBug(t *testing.T) {
	res, err := RunTarget(cleanTarget(), "SURW", Config{Sessions: 2, Limit: 50, Seed: 5, StopAtFirstBug: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FoundEver() {
		t.Fatal("clean target reported a bug")
	}
	sum, found := res.FirstBugSummary()
	if found != 0 || sum.N != 0 {
		t.Fatalf("summary %+v found=%d", sum, found)
	}
	obs := res.FirstBugObs()
	for _, o := range obs {
		if o.Event {
			t.Fatal("censored observation marked as event")
		}
		if o.Time != float64(res.Limit+1) {
			t.Fatalf("censor time = %v", o.Time)
		}
	}
}

func TestCoverageCollection(t *testing.T) {
	res, err := RunTarget(raceTarget(), "RW", Config{
		Sessions: 2, Limit: 200, Seed: 7, Coverage: true, CoverageEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions[0]
	if s.Cov == nil || len(s.Cov.Interleavings) < 2 {
		t.Fatalf("coverage missing or trivial: %+v", s.Cov)
	}
	if len(s.Cov.Series) != 4 {
		t.Fatalf("series has %d points, want 4", len(s.Cov.Series))
	}
	last := s.Cov.Series[len(s.Cov.Series)-1]
	if last.Schedules != 200 || last.Interleavings != len(s.Cov.Interleavings) {
		t.Fatalf("final series point wrong: %+v", last)
	}
	if s.Cov.InterleavingEntropy() <= 0 {
		t.Fatal("interleaving entropy should be positive")
	}
	// Behaviours: "ok" always (bug aborts before SetBehavior on "lost"
	// schedules? no — behavior set before assert), so both seen.
	if len(s.Cov.Behaviors) == 0 {
		t.Fatal("no behaviours recorded")
	}
	ms := res.MeanCoverageSeries()
	if len(ms) != 4 || ms[3].IlvMean <= 0 {
		t.Fatalf("mean series wrong: %+v", ms)
	}
	ie, be := res.EntropySummary()
	if ie.N != 2 || be.N != 2 {
		t.Fatalf("entropy summaries wrong: %+v %+v", ie, be)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	cfg := Config{Sessions: 3, Limit: 100, Seed: 42, StopAtFirstBug: true}
	a, err := RunTarget(raceTarget(), "SURW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTarget(raceTarget(), "SURW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sessions {
		if a.Sessions[i].FirstBug != b.Sessions[i].FirstBug {
			t.Fatalf("session %d diverged: %d vs %d", i, a.Sessions[i].FirstBug, b.Sessions[i].FirstBug)
		}
	}
}

func TestBadAlgorithmName(t *testing.T) {
	if _, err := RunTarget(cleanTarget(), "NOPE", Config{Sessions: 1, Limit: 1}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestLogRankOnRunnerOutput(t *testing.T) {
	cfg := Config{Sessions: 10, Limit: 400, Seed: 13, StopAtFirstBug: true}
	surw, err := RunTarget(raceTarget(), "SURW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RunTarget(raceTarget(), "RW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Just exercise the plumbing: the statistic must be finite and p in
	// [0,1]; on this easy bug both algorithms are fast so no significance
	// is required.
	chi2, p := stats.LogRank(surw.FirstBugObs(), rw.FirstBugObs())
	if chi2 < 0 || p < 0 || p > 1 {
		t.Fatalf("log-rank chi2=%v p=%v", chi2, p)
	}
}
