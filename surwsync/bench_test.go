package surwsync_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"surw/internal/core"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/surwsync"
)

// pairsPerSchedule keeps each controlled schedule far below the default
// MaxSteps; a benchmark op is one lock/unlock pair (two events).
const pairsPerSchedule = 1000

// timeSchedules runs n lock/unlock pairs as single-threaded controlled
// schedules of prog (which performs the given number of pairs) and returns
// the wall-clock time spent, schedule set-up included — amortized over
// pairsPerSchedule it is noise, and both controlled arms pay it alike.
func timeSchedules(n int, prog func(pairs int) func(*sched.Thread)) time.Duration {
	pool := sched.NewPool()
	defer pool.Close()
	t0 := time.Now()
	for n > 0 {
		pairs := min(n, pairsPerSchedule)
		if res := pool.Run(prog(pairs), nil, sched.Options{}); res.Failure != nil || res.Truncated {
			panic("lock loop did not run to completion")
		}
		n -= pairs
	}
	return time.Since(t0)
}

func shimPairs(pairs int) func(*sched.Thread) {
	return surwsync.Program(func() {
		var mu surwsync.Mutex
		for i := 0; i < pairs; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}

func threadAPIPairs(pairs int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		mu := t.NewMutex("bench")
		for i := 0; i < pairs; i++ {
			mu.Lock(t)
			mu.Unlock(t)
		}
	}
}

// BenchmarkShimMutex prices one lock/unlock pair on each rung the shim
// stands on: through surwsync under a session, through the Thread API it
// forwards to, through surwsync with no session (the production fallback),
// and on a plain sync.Mutex. The shim arm also reports x_thread_api, its
// cost as a multiple of the Thread API's measured in the same process —
// the ratio ci.sh gates, since it survives a slow or noisy machine.
func BenchmarkShimMutex(b *testing.B) {
	b.Run("shim", func(b *testing.B) {
		d := timeSchedules(b.N, shimPairs)
		b.StopTimer()
		ref := timeSchedules(b.N, threadAPIPairs)
		b.ReportMetric(float64(d)/float64(ref), "x_thread_api")
		if n := sched.Bindings(); n != 0 {
			b.Fatalf("%d goroutine bindings leaked", n)
		}
	})
	b.Run("thread_api", func(b *testing.B) { timeSchedules(b.N, threadAPIPairs) })
	b.Run("fallback", func(b *testing.B) {
		var mu surwsync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
	b.Run("sync", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}

// BenchmarkShimSchedule counts what one pooled schedule of real Go code
// allocates: the ported worker pool (WP/pool_2w2j) under a random walk,
// seeds 0..N-1 after one warm-up schedule. What is left is the program's
// own (its pool, channels, closures and slices) and the Result — the
// Failure is part of it; the engine's handles, Ref cells, channel buffers,
// names and deadlock reports come from the execution. The count is exact
// for a fixed -benchtime=Nx, which is how ci.sh gates it.
func BenchmarkShimSchedule(b *testing.B) {
	prog := sctbench.WorkerPool(2, 2).Prog
	alg := core.NewRandomWalk()
	pool := sched.NewPool()
	defer pool.Close()
	pool.Run(prog, alg, sched.Options{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/schedule")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N), "B/schedule")
}
