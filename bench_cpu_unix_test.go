//go:build unix

package surw

import (
	"iter"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"surw/internal/runner"
	"surw/internal/sctbench"
)

// processCPU returns the CPU time, user and system, the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrationUnits is the calibration arm's size: about the CPU time of the
// session arm's 800 schedules.
const calibrationUnits = 200_000

// calibrate runs n units of work with the engine's shape — a coroutine
// switch through iter.Pull, a splitmix64 draw on the other side of it, and
// an update of a small map — and returns a value that depends on all of it.
func calibrate(n int) uint64 {
	next, stop := iter.Pull(func(yield func(uint64) bool) {
		x := uint64(42)
		for {
			x += 0x9E3779B97F4A7C15
			z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			if !yield(z ^ z>>31) {
				return
			}
		}
	})
	defer stop()
	counts := make(map[uint64]int, 16)
	var sum uint64
	for i := 0; i < n; i++ {
		v, _ := next()
		counts[v&15]++
		sum += v
	}
	return sum + uint64(len(counts))
}

// BenchmarkSessionCPU is the engine's throughput gate, normalised to the
// machine it runs on: the process CPU time (getrusage) a schedule of
// BenchmarkParallelSessions' workers_1 batch costs, over the CPU time of a
// calibration unit (calibrate), at GOMAXPROCS 1 so that both arms are one
// thread's work and the collector's. Every iteration is a round of the two
// arms, one after the other, each from a fresh heap; x_calibration is the
// median round's ratio, the value ci.sh gates (run it with -benchtime of at
// least 5x). A slow or busy machine slows both arms; a slower engine only
// the first.
func BenchmarkSessionCPU(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	cfg := runner.Config{Sessions: 8, Limit: 100, Seed: 42, Workers: 1}
	var ratios []float64
	var sink uint64
	var sessionCPU, unitCPU time.Duration
	schedules := 0
	for i := 0; i < b.N; i++ {
		runtime.GC()
		t0 := processCPU(b)
		res, err := runner.RunTarget(tgt, "RW", cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1 := processCPU(b)
		runtime.GC()
		t2 := processCPU(b)
		sink += calibrate(calibrationUnits)
		t3 := processCPU(b)
		n := res.TotalSchedules()
		schedules += n
		sessionCPU += t1 - t0
		unitCPU += t3 - t2
		perSchedule := float64(t1-t0) / float64(n)
		perUnit := float64(t3-t2) / calibrationUnits
		ratios = append(ratios, perSchedule/perUnit)
	}
	if sink == 0 {
		b.Fatal("calibration computed nothing")
	}
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "x_calibration")
	b.ReportMetric(float64(sessionCPU.Nanoseconds())/float64(schedules), "cpu_ns/schedule")
	b.ReportMetric(float64(unitCPU.Nanoseconds())/float64(b.N*calibrationUnits), "cpu_ns/unit")
}
