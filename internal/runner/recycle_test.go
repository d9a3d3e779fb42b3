package runner

import (
	"context"
	"math/rand"
	"testing"

	"surw/internal/atlas"
	"surw/internal/core"
	"surw/internal/sched"
)

// TestReleasedWorkerAllocatesNoWorkerStorage: a worker released — close, the
// half of release before workers.Put — and taken again, as getWorker hands
// out a pooled worker untouched, runs its next session allocating what a
// warm worker's session does plus what its closed pool's first schedule
// does, and nothing more: the census tables, the Δ stream, the algorithm
// instance, the Result and the atlas staging block are the worker's still.
// The pool's share — a coroutine per thread and the thread paths it
// interns again — is measured on a bare sched.Pool closed the same way.
func TestReleasedWorkerAllocatesNoWorkerStorage(t *testing.T) {
	tgt := cleanTarget()
	cfg := Config{Limit: 30, Seed: 5, Atlas: atlas.New()}.normalized()

	p := sched.NewPool()
	var res sched.Result
	schedule := func() { p.RunInto(&res, tgt.Prog, nil, sched.Options{}) }
	schedule()
	poolRestart := testing.AllocsPerRun(20, func() {
		p.Close()
		schedule()
	}) - testing.AllocsPerRun(20, schedule) // less what the program allocates itself
	p.Close()
	if poolRestart == 0 {
		t.Fatal("a closed pool's first schedule allocated nothing: it started no coroutine")
	}

	for _, alg := range append(core.AllNames(), "URW") {
		w := getWorker()
		session := 0
		run := func() {
			s, _, err := runSession(context.Background(), tgt, alg, cfg, session, w)
			if err != nil || s.FirstBug != -1 || s.Schedules != cfg.Limit {
				t.Fatalf("%s session %d: %+v, %v; want %d bug-free schedules", alg, session, s, err, cfg.Limit)
			}
			session++
		}
		run() // the worker's first session builds its storage
		warm := testing.AllocsPerRun(20, run)
		recycled := testing.AllocsPerRun(20, func() {
			if !w.close() {
				t.Fatalf("%s: a worker whose schedules all returned is not reusable", alg)
			}
			run()
		})
		if recycled != warm+poolRestart {
			t.Errorf("%s: a released worker's next session allocates %v objects, want %v: a warm session's %v and its closed pool's %v",
				alg, recycled, warm+poolRestart, warm, poolRestart)
		}
		w.release()
	}
}

// panicky names a thread that does not exist at its first real decision:
// an engine panic inside a schedule.
type panicky struct{}

func (panicky) Name() string                         { return "panicky" }
func (panicky) Begin(*sched.ProgramInfo, *rand.Rand) {}
func (panicky) Observe(sched.Event, *sched.State)    {}
func (panicky) Next(*sched.State) sched.ThreadID     { return -1 }

// TestPanickedWorkerIsDropped: a worker one of whose schedules panicked is
// not reusable — release drops it, and a WorkerCache does not keep it for
// the target's next session — while one whose schedules all returned is.
func TestPanickedWorkerIsDropped(t *testing.T) {
	wc := NewWorkerCache()
	defer wc.Close()
	w := wc.get(cleanTarget().Name)
	if err := w.begin(cleanTarget(), "RW", Config{Seed: 1}, 0); err != nil {
		t.Fatal(err)
	}
	w.Next(&w.res, nil)
	if w.running {
		t.Fatal("a schedule that returned left its worker marked running")
	}
	w.alg = panicky{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the schedule did not panic")
			}
		}()
		w.Next(&w.res, nil)
	}()
	wc.put(cleanTarget().Name, w)
	if n := len(wc.free[cleanTarget().Name]); n != 0 {
		t.Fatalf("the cache kept %d workers after a schedule panicked, want none", n)
	}
	if w.close() {
		t.Fatal("a worker whose schedule panicked reports itself reusable")
	}
}

// TestDriverCloseReleasesOnce: Close hands the worker back and forgets it,
// so a second Close releases nothing and any other use of the Driver
// panics instead of driving a worker another run may hold.
func TestDriverCloseReleasesOnce(t *testing.T) {
	d, err := OpenDriver(cleanTarget(), "SURW", Config{Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res sched.Result
	d.Next(&res, nil)
	d.Close()
	if d.worker != nil {
		t.Fatal("a closed Driver still holds its worker")
	}
	d.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Next on a closed Driver did not panic")
		}
	}()
	d.Next(&res, nil)
}
