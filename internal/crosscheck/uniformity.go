package crosscheck

import (
	"fmt"

	"surw/internal/sched"
	"surw/internal/stats"
)

// GateResult reports one chi-square goodness-of-fit run of a sampler's
// empirical interleaving distribution against the enumerated uniform.
type GateResult struct {
	Trials  int
	Classes int
	Seen    int // distinct classes actually sampled
	Chi2    float64
	P       float64 // upper-tail p-value at Classes-1 degrees of freedom
}

func (g GateResult) String() string {
	return fmt.Sprintf("trials=%d classes=%d seen=%d chi2=%.1f p=%.4g",
		g.Trials, g.Classes, g.Seen, g.Chi2, g.P)
}

// Uniformity samples trials schedules of alg on prog and chi-square-tests
// the fingerprint tallies against a uniform distribution over the classes
// set (the exhaustively enumerated feasible interleavings, enumerated with
// the same filter). filter restricts which events fold into the
// fingerprint — the paper's uniformity claims are over the interleavings
// of the *counted* worker events, not of the blocking join/teardown events
// around them, so callers project both the enumeration and the samples
// onto that subset (nil = all events). Sampling a fingerprint outside
// classes is an immediate error — that is a legality violation, not a
// statistical fluctuation.
func Uniformity(prog func(*sched.Thread), alg sched.Algorithm, info *sched.ProgramInfo, classes map[uint64]bool, filter func(sched.Event) bool, trials int, seed int64) (GateResult, error) {
	g := GateResult{Trials: trials, Classes: len(classes)}
	if len(classes) < 2 {
		return g, fmt.Errorf("crosscheck: uniformity needs at least 2 classes, got %d", len(classes))
	}
	counts := make(map[uint64]int, len(classes))
	pool := sched.NewPool()
	for i := 0; i < trials; i++ {
		res := pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed + int64(i)}, Info: info, TraceFilter: filter})
		if res.Buggy() || res.Truncated {
			return g, fmt.Errorf("crosscheck: uniformity trial %d failed: buggy=%v truncated=%v", i, res.Buggy(), res.Truncated)
		}
		if !classes[res.InterleavingHash] {
			return g, fmt.Errorf("crosscheck: uniformity trial %d sampled fingerprint %#x outside the %d enumerated classes", i, res.InterleavingHash, len(classes))
		}
		counts[res.InterleavingHash]++
	}
	g.Seen = len(counts)
	tallies := make([]int, 0, len(counts))
	for _, c := range counts {
		tallies = append(tallies, c)
	}
	g.Chi2 = stats.ChiSquareUniform(tallies, len(classes))
	g.P = stats.ChiSquareSF(g.Chi2, len(classes)-1)
	return g, nil
}
