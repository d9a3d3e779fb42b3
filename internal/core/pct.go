package core

import (
	"math/rand"

	"surw/internal/sched"
)

// PCT implements Probabilistic Concurrency Testing with depth parameter d
// (Burckhardt et al., ASPLOS 2010). Each thread receives a random base
// priority; the highest-priority enabled thread always runs. d-1 change
// points are sampled uniformly from the expected schedule length n; when
// the i-th change point is reached, the running thread's priority drops
// below every base priority (to the i-th "low" slot). For a bug of depth d,
// PCT triggers it with probability >= 1/(k * n^(d-1)).
//
// PCT needs an estimate of n; it reads ProgramInfo.TotalEvents and falls
// back to DefaultLengthGuess when no profile is supplied.
type PCT struct {
	Depth int

	rng      *rand.Rand
	prios    []float64 // by TID; base in (1,2), change slots negative
	changeAt []int     // sorted step indices of priority change points
	nextCP   int       // index into changeAt
	steps    int
}

// DefaultLengthGuess is PCT's schedule-length estimate without a profile.
const DefaultLengthGuess = 1000

// NewPCT returns a PCT scheduler with the given depth (d >= 1).
func NewPCT(depth int) *PCT {
	if depth < 1 {
		depth = 1
	}
	return &PCT{Depth: depth}
}

// Name implements sched.Algorithm.
func (a *PCT) Name() string {
	if a.Depth == 3 {
		return "PCT-3"
	}
	if a.Depth == 10 {
		return "PCT-10"
	}
	return "PCT-" + itoa(a.Depth)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Begin implements sched.Algorithm.
func (a *PCT) Begin(info *sched.ProgramInfo, rng *rand.Rand) {
	a.rng = rng
	a.prios = a.prios[:0]
	a.steps = 0
	a.nextCP = 0
	n := DefaultLengthGuess
	if info != nil && info.TotalEvents > 0 {
		n = info.TotalEvents
	}
	a.changeAt = a.changeAt[:0]
	for i := 0; i < a.Depth-1; i++ {
		a.changeAt = append(a.changeAt, rng.Intn(n)+1)
	}
	sortInts(a.changeAt)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func (a *PCT) prio(tid sched.ThreadID) float64 {
	for len(a.prios) <= tid {
		// Base priorities live in (1,2); Float64 draws make them distinct
		// with probability 1 and keep new threads randomly ranked.
		a.prios = append(a.prios, 1+float64(a.rng.Float64()))
	}
	return a.prios[tid]
}

// Next implements sched.Algorithm: run the highest-priority enabled thread.
func (a *PCT) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	best := e[0]
	bestP := a.prio(best)
	for _, tid := range e[1:] {
		if p := a.prio(tid); p > bestP {
			best, bestP = tid, p
		}
	}
	return best
}

// Observe implements sched.Algorithm: count executed events and apply
// priority change points to the thread that just ran.
func (a *PCT) Observe(ev sched.Event, _ *sched.State) {
	a.steps++
	for a.nextCP < len(a.changeAt) && a.steps >= a.changeAt[a.nextCP] {
		a.prio(ev.TID) // ensure slot exists
		// The i-th change point assigns the i-th low slot: d-i in the
		// paper's integer scheme; any strictly decreasing negative sequence
		// below all base priorities preserves the semantics.
		a.prios[ev.TID] = -float64(a.nextCP + 1)
		a.nextCP++
	}
}
