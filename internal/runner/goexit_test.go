package runner_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"surw/internal/runner"
	"surw/internal/sched"
	"surw/surwsync"
)

// goexitTargets are two bug-free programs whose children leave through
// runtime.Goexit: one written against the Thread API, one through the
// surwsync shim's goroutines.
func goexitTargets() []runner.Target {
	threads := func(rt *sched.Thread) {
		x := rt.NewVar("x", 0)
		h := rt.Go(func(w *sched.Thread) {
			x.Store(w, 1)
			runtime.Goexit()
		})
		x.Load(rt)
		rt.Join(h)
		rt.Assert(x.Load(rt) == 1, "the child's store was lost")
	}
	goroutines := surwsync.Program(func() {
		var mu surwsync.Mutex
		var wg surwsync.WaitGroup
		n := 0
		wg.Add(2)
		for i := 0; i < 2; i++ {
			surwsync.Go(func() {
				defer wg.Done()
				mu.Lock()
				n++
				mu.Unlock()
				runtime.Goexit()
			})
		}
		wg.Wait()
		if n != 2 {
			panic("a goroutine's increment was lost")
		}
	})
	return []runner.Target{{Name: "goexit/thread", Prog: threads}, {Name: "goexit/surwsync", Prog: goroutines}}
}

// returns runs f on a goroutine of its own, failing the test if f does not
// return: a Goexit that escaped its thread ends the goroutine running the
// session, and a lost baton hangs.
func returns[T any](t *testing.T, f func() (T, error)) T {
	t.Helper()
	var (
		v        T
		err      error
		returned bool
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err = f()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not return")
	}
	if !returned {
		t.Fatal("runtime.Goexit in a controlled thread ended the goroutine running the session")
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGoexitEndsOnlyItsThread: a program thread's runtime.Goexit ends that
// thread, not the runner — at one worker and at two every session comes
// back whole and the two agree — and the warm worker it ran on runs the
// next session exactly as a fresh one does; closing the cache leaves no
// goroutine behind.
func TestGoexitEndsOnlyItsThread(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, tgt := range goexitTargets() {
		for _, alg := range []string{"SURW", "PCT-3", "RW"} {
			var prev *runner.Result
			for _, workers := range []int{1, 2} {
				cfg := runner.Config{Sessions: 3, Limit: 40, Seed: 3, Workers: workers}
				res := returns(t, func() (*runner.Result, error) { return runner.RunTarget(tgt, alg, cfg) })
				for i, s := range res.Sessions {
					if s.FirstBug != -1 || s.Schedules != cfg.Limit {
						t.Fatalf("%s/%s workers=%d session %d: %+v, want %d bug-free schedules", tgt.Name, alg, workers, i, s, cfg.Limit)
					}
				}
				if prev != nil && !res.Equal(prev) {
					t.Fatalf("%s/%s: two workers' result differs from one worker's", tgt.Name, alg)
				}
				prev = res
			}
		}
	}

	// The same worker then runs a program of the same name with no Goexit.
	wc := runner.NewWorkerCache()
	cfg := runner.Config{Limit: 40, Seed: 9}
	for _, tgt := range goexitTargets() {
		returns(t, func() (*runner.Session, error) { return wc.RunSession(context.Background(), tgt, "SURW", cfg, 0) })
		plain := tgt
		plain.Prog = func(rt *sched.Thread) {
			x := rt.NewVar("x", 0)
			h := rt.Go(func(w *sched.Thread) { x.Add(w, 1) })
			x.Add(rt, 1)
			rt.Join(h)
		}
		got := returns(t, func() (*runner.Session, error) { return wc.RunSession(context.Background(), plain, "SURW", cfg, 1) })
		want, err := runner.RunSession(context.Background(), plain, "SURW", cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after Goexit sessions the warm worker ran %+v, a fresh one %+v", tgt.Name, got, want)
		}
	}
	wc.Close()
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Fatalf("%d goroutines after the cache closed, %d before", n, baseline)
	}
}
