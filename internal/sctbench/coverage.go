package sctbench

import (
	"fmt"

	"surw/internal/runner"
	"surw/internal/sched"
)

// CoverageTargets returns the bug-free coverage probes: programs whose
// point is not a bug to find but a small, fully enumerable schedule space
// to measure samplers against. They ride beside the Table 4 rows in
// ByName/Names so campaigns and workers can resolve them, but they are
// not part of Targets() — the paper's tables never include them.
func CoverageTargets() []runner.Target {
	return []runner.Target{Bitshift(3), Bitshift(4)}
}

// Bitshift is the paper's Figure 1 program as a coverage target: two
// threads atomically append a bit to shared x (thread A a 0, thread B a
// 1), k times each. The final value of x identifies the outcome, and
// there are exactly C(2k, k) of them — 20 for k=3, 70 for k=4. Every
// writer event conflicts on the same variable, so the commutation-class
// partition is exactly that outcome partition: distinct classes must
// equal distinct behaviours, the exact ground truth a dedup smoke can
// assert. (Raw interleaving hashes over-count — they also distinguish
// when the blocked main thread was rescheduled around its joins.)
func Bitshift(k int) runner.Target {
	return runner.Target{
		Name: fmt.Sprintf("Fig1/bitshift_%d", k),
		Prog: func(t *sched.Thread) {
			x := t.NewVar("x", 1)
			a := t.Go(func(w *sched.Thread) {
				for i := 0; i < k; i++ {
					x.Update(w, func(v int64) int64 { return v << 1 })
				}
			})
			b := t.Go(func(w *sched.Thread) {
				for i := 0; i < k; i++ {
					x.Update(w, func(v int64) int64 { return v<<1 + 1 })
				}
			})
			t.Join(a)
			t.Join(b)
			t.SetBehavior(bitString(x.Peek(), k))
		},
	}
}

// bitString renders the final x as a fixed-width binary string (without
// the sentinel leading 1), so behaviour keys sort naturally.
func bitString(v int64, k int) string {
	n := 2 * k
	buf := make([]byte, n)
	for i := n - 1; i >= 0; i-- {
		buf[i] = byte('0' + v&1)
		v >>= 1
	}
	return string(buf)
}

// BitshiftInfo hand-builds the exact profile of Bitshift(k)'s program.
func BitshiftInfo(k int) *sched.ProgramInfo {
	pi := sched.NewProgramInfo()
	root := pi.AddThread("0", "")
	a := pi.AddThread("0.0", "0")
	b := pi.AddThread("0.1", "0")
	pi.Events[root] = 2
	pi.Events[a] = k
	pi.Events[b] = k
	copy(pi.InterestingEvents, pi.Events)
	pi.TotalEvents = 2 + 2*k
	return pi
}
