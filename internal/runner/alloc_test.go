package runner_test

import (
	"context"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sched"
)

// TestWarmSessionAllocatesOnlyItsRecord is the session-level sibling of
// sched's TestPooledScheduleAllocatesOnlyItsResult: on a bug-free program
// that allocates nothing of its own, a session on a warm worker allocates
// its record — the Session and its Bugs map — and nothing else, whatever
// the algorithm: the pool, the census, the Δ stream, the Result and the
// algorithm instance are all the worker's.
func TestWarmSessionAllocatesOnlyItsRecord(t *testing.T) {
	var o struct {
		mu *sched.Mutex
		x  *sched.Var
		y  *sched.Var
	}
	child := func(w *sched.Thread) {
		o.mu.Lock(w)
		o.x.Add(w, 1)
		o.mu.Unlock(w)
		o.y.Store(w, o.x.Load(w))
	}
	tgt := runner.Target{Name: "quiet", Prog: func(rt *sched.Thread) {
		o.mu = rt.NewMutex("mu")
		o.x = rt.NewVar("x", 0)
		o.y = rt.NewVar("y", 0)
		a, b := rt.Go(child), rt.Go(child)
		o.y.Load(rt)
		rt.Join(a)
		rt.Join(b)
	}}
	cfg := runner.Config{Limit: 30, Seed: 5}
	wc := runner.NewWorkerCache()
	defer wc.Close()
	for _, alg := range append(core.AllNames(), "URW") {
		session := 0
		run := func() {
			s, err := wc.RunSession(context.Background(), tgt, alg, cfg, session)
			if err != nil || s.FirstBug != -1 || s.Schedules != cfg.Limit {
				t.Fatalf("%s session %d: %+v, %v; want %d bug-free schedules", alg, session, s, err, cfg.Limit)
			}
			session++
		}
		run() // the first session of an algorithm on the worker builds its instance
		want := 2.0
		if a, _ := core.New(alg); raceDetector && core.InputsOf(a).Delta {
			// Under -race, a session's first Δ draw, which grows the
			// census's selection tables (profile.SelectSingleVar), costs
			// 3 objects more.
			want += 3
		}
		if got := testing.AllocsPerRun(20, run); got != want {
			t.Errorf("%s: a warm session allocates %v objects, want %v (the Session and its Bugs map)", alg, got, want)
		}
	}
}
