package core

import (
	"fmt"
	"math"
	"testing"

	"surw/internal/sched"
	"surw/internal/stats"
)

// The §3.4 guarantees: Δ-uniformity implies Δ_T-uniformity for any thread
// subset T, which yields closed-form lower bounds on bug-hitting
// probability under the clusters and duplicates threading patterns. These
// tests validate the bounds empirically against SURW.

// clusterProg builds c independent clusters of one writer (2 writes) and
// one reader (2 reads) on a per-cluster variable; the bug fires when any
// cluster's reader performs both reads before its writer writes — exactly
// 1 of the C(4,2)=6 intra-cluster interleavings.
func clusterProg(c int) (func(*sched.Thread), *sched.ProgramInfo) {
	prog := func(t *sched.Thread) {
		var hs []*sched.Handle
		for j := 0; j < c; j++ {
			x := t.NewVar(fmt.Sprintf("x%d", j), 0)
			hs = append(hs, t.Go(func(w *sched.Thread) {
				x.Add(w, 1)
				x.Add(w, 1)
			}))
			hs = append(hs, t.Go(func(w *sched.Thread) {
				first := x.Load(w)
				second := x.Load(w)
				w.Assert(!(first == 0 && second == 0), "cluster-bug")
			}))
		}
		t.JoinAll(hs...)
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	info.Events[root] = 2 * c
	for i := 0; i < 2*c; i++ {
		l := info.AddThread(fmt.Sprintf("0.%d", i), "0")
		info.Events[l] = 2
		info.InterestingEvents[l] = 2
	}
	info.TotalEvents = 2*c + 4*c
	return prog, info
}

func hitRate(t *testing.T, prog func(*sched.Thread), info *sched.ProgramInfo, n int) float64 {
	t.Helper()
	hits := 0
	alg := NewSURW()
	for seed := 0; seed < n; seed++ {
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(seed)}, Info: info})
		if r.Buggy() {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

func TestClusterBoundHolds(t *testing.T) {
	const trials = 3000
	for _, c := range []int{1, 3} {
		prog, info := clusterProg(c)
		bound := stats.ClusterBound(stats.Binomial(4, 2), c)
		rate := hitRate(t, prog, info, trials)
		// The bound is a guaranteed lower bound; allow 4 sigma of sampling
		// noise below it.
		slack := 4 * 0.01
		if rate < bound-slack {
			t.Fatalf("c=%d: hit rate %.3f below the §3.4 bound %.3f", c, rate, bound)
		}
		t.Logf("c=%d: rate %.3f vs bound %.3f", c, rate, bound)
	}
}

// duplicatesProg builds ka writers and kb readers: writer i stores 1 then
// 2 into v_i; reader j loads every v_i and the bug fires when any read
// observes the mid-state 1 — per (i,j) pair, 1 of the C(3,1)=3 projected
// interleavings.
func duplicatesProg(ka, kb int) (func(*sched.Thread), *sched.ProgramInfo) {
	prog := func(t *sched.Thread) {
		vs := make([]*sched.Var, ka)
		for i := range vs {
			vs[i] = t.NewVar(fmt.Sprintf("v%d", i), 0)
		}
		var hs []*sched.Handle
		for i := 0; i < ka; i++ {
			v := vs[i]
			hs = append(hs, t.Go(func(w *sched.Thread) {
				v.Store(w, 1)
				v.Store(w, 2)
			}))
		}
		for j := 0; j < kb; j++ {
			hs = append(hs, t.Go(func(w *sched.Thread) {
				for i := 0; i < ka; i++ {
					w.Assert(vs[i].Load(w) != 1, "duplicates-bug")
				}
			}))
		}
		t.JoinAll(hs...)
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	info.Events[root] = ka + kb
	idx := 0
	for i := 0; i < ka; i++ {
		l := info.AddThread(fmt.Sprintf("0.%d", idx), "0")
		info.Events[l] = 2
		info.InterestingEvents[l] = 2
		idx++
	}
	for j := 0; j < kb; j++ {
		l := info.AddThread(fmt.Sprintf("0.%d", idx), "0")
		info.Events[l] = ka
		info.InterestingEvents[l] = ka
		idx++
	}
	info.TotalEvents = ka + kb + 2*ka + ka*kb
	return prog, info
}

func TestDuplicatesBoundHolds(t *testing.T) {
	const trials = 3000
	for _, kk := range [][2]int{{1, 1}, {2, 2}} {
		ka, kb := kk[0], kk[1]
		prog, info := duplicatesProg(ka, kb)
		// Per pair: the writer has na=2 interesting events and the reader
		// nb=ka (one read per writer); the §3.4 bound guarantees hitting
		// any single one of the C(na+nb, na) pair-interleavings, of which
		// at least one exhibits the mid-state read.
		bound := duplicatesBound(2, ka, ka, kb)
		rate := hitRate(t, prog, info, trials)
		slack := 4 * 0.01
		if rate < bound-slack {
			t.Fatalf("ka=%d kb=%d: hit rate %.3f below the §3.4 bound %.3f", ka, kb, rate, bound)
		}
		t.Logf("ka=%d kb=%d: rate %.3f vs bound %.3f", ka, kb, rate, bound)
	}
}

// duplicatesBound is the §3.4 "duplicates" success-probability lower bound
// for ka type-A and kb type-B threads with na and nb interesting events
// each, when the bug manifests on the interleaving of any A-B pair:
// 1 - (1 - 1/C(na+nb, na))^(ka*kb).
func duplicatesBound(na, nb, ka, kb int) float64 {
	perms := stats.Binomial(na+nb, na)
	if perms <= 0 || ka <= 0 || kb <= 0 {
		return 0
	}
	return 1 - math.Pow(1-1/perms, float64(ka*kb))
}

func TestDuplicatesBound(t *testing.T) {
	approx := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %g, want %g", what, got, want)
		}
	}
	// One pair of 1+1 events: 2 interleavings, bound 1/2.
	approx(duplicatesBound(1, 1, 1, 1), 0.5, "1x1")
	// The paper's producer-consumer shape: na=2, nb=2, 2x2 pairs.
	approx(duplicatesBound(2, 2, 2, 2), 1-math.Pow(5.0/6, 4), "2x2")
	if duplicatesBound(2, 2, 0, 1) != 0 || duplicatesBound(-1, 2, 1, 1) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
	// More pairs can only help.
	if duplicatesBound(3, 3, 2, 2) <= duplicatesBound(3, 3, 1, 1) {
		t.Fatal("bound not monotone in pair count")
	}
}

// TestIrrelevantThreadsPreserveUniformity validates §3.4's first pattern:
// adding a busy monitoring thread whose events are not in Δ must not
// disturb the Δ-projected uniformity of the relevant threads.
func TestIrrelevantThreadsPreserveUniformity(t *testing.T) {
	const k, noise = 3, 30
	prog := func(t *sched.Thread) {
		x := t.NewVar("x", 1)
		log := t.NewVar("log", 0)
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
		mon := t.Go(func(w *sched.Thread) {
			for i := 0; i < noise; i++ {
				log.Add(w, 1)
			}
		})
		t.JoinAll(a, b, mon)
		t.SetBehavior(itoa(int(x.Peek())))
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	info.Events[root] = 3
	la := info.AddThread("0.0", "0")
	lb := info.AddThread("0.1", "0")
	lm := info.AddThread("0.2", "0")
	info.Events[la], info.Events[lb], info.Events[lm] = k, k, noise
	info.InterestingEvents[la], info.InterestingEvents[lb] = k, k
	info.TotalEvents = 3 + 2*k + noise
	info.Interesting = func(ev sched.Event) bool {
		return ev.Kind.IsMemAccess() && ev.ObjHash == hashOf("x")
	}
	classes := binom(2*k, k)
	n := classes * 500
	counts := map[string]int{}
	alg := NewSURW()
	for seed := 0; seed < n; seed++ {
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(seed)}, Info: info})
		counts[r.Behavior]++
	}
	if len(counts) != classes {
		t.Fatalf("saw %d of %d classes", len(counts), classes)
	}
	if x := chiSquare(counts, classes, n); x > 50 {
		t.Fatalf("chi2 = %.1f; monitor thread disturbed Δ-uniformity", x)
	}
}
