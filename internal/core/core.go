// Package core implements the randomized controlled-concurrency-testing
// algorithms from "Selectively Uniform Concurrency Testing" (ASPLOS 2025)
// and its baselines, behind the sched.Algorithm interface:
//
//   - RandomWalk: uniform choice among enabled threads at each step.
//   - PCT(d): Probabilistic Concurrency Testing (Burckhardt et al.),
//     priority-based with d-1 random priority change points.
//   - POS: Partial Order Sampling (Yuan et al.), random priorities per
//     event with resampling of racing events.
//   - URW (Algorithm 1): weighted random walk where each thread's weight is
//     the estimated number of its remaining events, with the §3.5
//     thread-creation correction (a parent carries the weight of its
//     unspawned descendants). URW samples interleavings uniformly for
//     programs without blocking synchronization.
//   - SURW (Algorithm 2): the paper's contribution. Given a subset Δ of
//     interesting events and per-thread Δ-counts, SURW eagerly commits to an
//     intended thread for the next interesting event via URW weights,
//     blocks other threads about to perform interesting events, and leaves
//     all remaining ordering to a pluggable pickFrom policy. This yields
//     Δ-uniformity while preserving Γ-completeness.
//   - NonUniform (N-U ablation): SURW with uniform (unweighted) choice of
//     the intended thread.
//   - NonSelective (N-S ablation): URW applied to all events (Δ = Γ).
//
// Every algorithm is stateless across schedules: Begin re-seeds it and
// resets all per-schedule state.
package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"surw/internal/sched"
)

// New constructs an algorithm from its report name: "RW", "PCT-<d>", "POS",
// "URW", "SURW", "N-U" (non-uniform ablation) or "N-S" (non-selective
// ablation). Names are case-insensitive.
func New(name string) (sched.Algorithm, error) {
	n := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case n == "RW" || n == "RANDOMWALK" || n == "RANDOM":
		return NewRandomWalk(), nil
	case strings.HasPrefix(n, "PCT-"):
		d, err := strconv.Atoi(n[len("PCT-"):])
		if err != nil || d < 1 {
			return nil, fmt.Errorf("core: bad PCT depth in %q", name)
		}
		return NewPCT(d), nil
	case n == "PCT":
		return NewPCT(3), nil
	case n == "POS":
		return NewPOS(), nil
	case n == "URW":
		return NewURW(), nil
	case n == "SURW":
		return NewSURW(), nil
	case n == "N-U" || n == "NU":
		return NewNonUniform(), nil
	case n == "N-S" || n == "NS":
		return NewNonSelective(), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", name)
}

// Inputs says what an algorithm reads of the ProgramInfo its Begin is
// handed. Counts is the profiled event counts — an algorithm that takes
// them is charged one schedule for the profiling run, as in the paper's
// accounting; Delta is the interesting-event subset, which a session
// re-draws per schedule for the algorithms that take one.
type Inputs struct {
	Counts, Delta bool
}

// InputsOf is the one answer to "what does this algorithm take", read off
// the constructed algorithm so that every spelling New accepts agrees.
func InputsOf(alg sched.Algorithm) Inputs {
	switch alg.(type) {
	case *SURW:
		return Inputs{Counts: true, Delta: true}
	case *URW, *PCT:
		return Inputs{Counts: true}
	}
	return Inputs{}
}

// AllNames lists the algorithm names used across the paper's evaluation, in
// the column order of Table 4.
func AllNames() []string {
	return []string{"SURW", "PCT-3", "PCT-10", "POS", "RW", "N-U", "N-S"}
}

// weightedIndex picks an index with probability proportional to weights[i].
// Non-positive weights never win unless every weight is non-positive, in
// which case the choice is uniform.
func weightedIndex(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// lidMap lazily resolves runtime TIDs to the profile's logical thread IDs.
type lidMap struct {
	info *sched.ProgramInfo
	lids []int
}

func (m *lidMap) reset(info *sched.ProgramInfo) {
	m.info = info
	m.lids = m.lids[:0]
}

func (m *lidMap) lid(st *sched.State, tid sched.ThreadID) int {
	for len(m.lids) <= tid {
		t := len(m.lids)
		l := -1
		if m.info != nil {
			l = m.info.LID(st.Path(t))
		}
		m.lids = append(m.lids, l)
	}
	return m.lids[tid]
}

// eventPrio assigns one fresh random priority to each thread's *current*
// next event (re-rolled whenever the thread publishes a new event). It is
// the paper's default pickFrom implementation for SURW and the backbone of
// POS.
type eventPrio struct {
	rng  *rand.Rand
	seq  []int
	prio []float64
}

func (p *eventPrio) reset(rng *rand.Rand) {
	p.rng = rng
	p.seq = p.seq[:0]
	p.prio = p.prio[:0]
}

func (p *eventPrio) grow(tid sched.ThreadID) {
	for len(p.seq) <= tid {
		p.seq = append(p.seq, -1)
		p.prio = append(p.prio, 0)
	}
}

// get returns the priority of tid's current next event.
func (p *eventPrio) get(st *sched.State, tid sched.ThreadID) float64 {
	p.grow(tid)
	if s := st.NextEvent(tid).Seq; p.seq[tid] != s {
		p.seq[tid] = s
		p.prio[tid] = p.rng.Float64()
	}
	return p.prio[tid]
}

// resample forces a fresh priority for tid's current next event.
func (p *eventPrio) resample(st *sched.State, tid sched.ThreadID) {
	p.grow(tid)
	p.seq[tid] = st.NextEvent(tid).Seq
	p.prio[tid] = p.rng.Float64()
}

// maxPrio returns the candidate with the highest event priority.
func (p *eventPrio) maxPrio(st *sched.State, cands []sched.ThreadID) sched.ThreadID {
	best := cands[0]
	bestP := p.get(st, best)
	for _, tid := range cands[1:] {
		if q := p.get(st, tid); q > bestP {
			best, bestP = tid, q
		}
	}
	return best
}
