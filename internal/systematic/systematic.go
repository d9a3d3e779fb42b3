// Package systematic implements the enumerative counterpart the paper
// compares against (§6 "Systematic concurrency testing"): an exhaustive
// depth-first exploration of the schedule space with optional
// CHESS-style preemption bounding. It doubles as a ground-truth oracle for
// the randomized algorithms: on small programs it counts the feasible
// interleavings exactly, which the tests cross-check against closed-form
// multinomials and against the sets the randomized samplers reach.
package systematic

import (
	"math/rand"

	"surw/internal/sched"
)

// Options bounds the exploration.
type Options struct {
	// MaxSchedules caps the number of executed schedules (0 = 1,000,000).
	MaxSchedules int
	// BoundPreemptions enables CHESS-style preemption bounding: schedules
	// with more than PreemptionBound preemptive context switches are not
	// explored. The zero value explores the full space.
	BoundPreemptions bool
	PreemptionBound  int
	// MaxSteps bounds each schedule (0 = sched.DefaultMaxSteps).
	MaxSteps int
	// ProgSeed fixes the program-input randomness.
	ProgSeed int64
	// TraceFilter restricts which events fold into the interleaving
	// fingerprints (nil = all events), mirroring sched.Options.TraceFilter
	// so enumerated class sets are comparable with filtered sampling runs.
	TraceFilter func(sched.Event) bool
	// RecordTrace records the full event sequence of every executed
	// schedule (sched.Options.RecordTrace), for Observe consumers that
	// need the trace — e.g. the crosscheck equivalence oracle.
	RecordTrace bool
	// Observe, when non-nil, is called with every executed schedule's
	// Result before it is folded into the exploration summary. The Result
	// (including its Trace when RecordTrace is set) is owned by the
	// callee; Explore never touches it again.
	Observe func(*sched.Result)
}

// Result summarizes an exploration.
type Result struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// Interleavings is the set of distinct interleaving fingerprints.
	Interleavings map[uint64]bool
	// Behaviors tallies program-reported behaviours.
	Behaviors map[string]bool
	// Bugs maps bug IDs to the number of schedules that hit them.
	Bugs map[string]int
	// Exhausted reports whether the (bounded) space was fully explored
	// within MaxSchedules.
	Exhausted bool
}

// pathAlg replays a fixed choice prefix, then continues non-preemptively
// (keep running the previous thread while it stays enabled, else take the
// lowest TID). While running it records, for every consulted decision, the
// enabled-set width and which alternatives would have been preemptive.
type pathAlg struct {
	prefix []int

	// per consulted decision, in order:
	widths   []int
	preempts [][]bool // preempts[i][c]: is choosing enabled[c] a preemption?
	taken    []int    // the index actually taken

	prev sched.ThreadID
}

func (p *pathAlg) Name() string { return "systematic" }

func (p *pathAlg) Begin(_ *sched.ProgramInfo, _ *rand.Rand) {
	p.widths = p.widths[:0]
	p.preempts = p.preempts[:0]
	p.taken = p.taken[:0]
	p.prev = -1
}

func (p *pathAlg) Observe(ev sched.Event, _ *sched.State) { p.prev = ev.TID }

func (p *pathAlg) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	step := len(p.widths)
	p.widths = append(p.widths, len(e))
	prevEnabled := -1
	for i, tid := range e {
		if tid == p.prev {
			prevEnabled = i
		}
	}
	pre := make([]bool, len(e))
	for i := range e {
		pre[i] = prevEnabled >= 0 && i != prevEnabled
	}
	p.preempts = append(p.preempts, pre)

	var idx int
	switch {
	case step < len(p.prefix):
		idx = p.prefix[step]
		if idx >= len(e) {
			idx = 0 // stale prefix (should not happen on deterministic programs)
		}
	case prevEnabled >= 0:
		idx = prevEnabled // continue the running thread: no preemption
	default:
		idx = 0
	}
	p.taken = append(p.taken, idx)
	return e[idx]
}

// Explore runs the bounded DFS.
func Explore(prog func(*sched.Thread), opts Options) *Result {
	maxSched := opts.MaxSchedules
	if maxSched <= 0 {
		maxSched = 1_000_000
	}
	res := &Result{
		Interleavings: make(map[uint64]bool),
		Behaviors:     make(map[string]bool),
		Bugs:          make(map[string]int),
		Exhausted:     true,
	}
	type frame struct {
		prefix   []int
		preempts int // preemptions consumed by the prefix
	}
	stack := []frame{{}}
	alg := &pathAlg{}
	for len(stack) > 0 {
		if res.Schedules >= maxSched {
			res.Exhausted = false
			return res
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		alg.prefix = f.prefix
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{MaxSteps: opts.MaxSteps, ProgSeed: opts.ProgSeed}, TraceFilter: opts.TraceFilter, RecordTrace: opts.RecordTrace})
		res.Schedules++
		if opts.Observe != nil {
			opts.Observe(r)
		}
		if r.Truncated {
			res.Exhausted = false
		}
		res.Interleavings[r.InterleavingHash] = true
		if r.Behavior != "" {
			res.Behaviors[r.Behavior] = true
		}
		if r.Buggy() {
			res.Bugs[r.BugID()]++
		}
		// Branch on every unexplored alternative past the prefix. The
		// prefix's own preemption cost is carried in the frame; the
		// non-preemptive continuation adds none, so alternatives at step s
		// cost f.preempts plus their own preemption flag.
		for s := len(f.prefix); s < len(alg.widths); s++ {
			takenIdx := alg.taken[s]
			for c := 0; c < alg.widths[s]; c++ {
				if c == takenIdx {
					continue
				}
				cost := f.preempts
				if alg.preempts[s][c] {
					cost++
				}
				if opts.BoundPreemptions && cost > opts.PreemptionBound {
					continue
				}
				br := make([]int, s+1)
				copy(br, f.prefix)
				copy(br[len(f.prefix):], alg.taken[len(f.prefix):s])
				br[s] = c
				stack = append(stack, frame{prefix: br, preempts: cost})
			}
		}
	}
	return res
}

// knuthAlg descends the schedule tree uniformly while accumulating the
// product of branching factors (Knuth's 1975 Monte Carlo tree-size
// estimator): the product is an unbiased estimate of the number of
// complete schedules.
type knuthAlg struct {
	rng     *rand.Rand
	product float64
}

func (k *knuthAlg) Name() string { return "knuth" }
func (k *knuthAlg) Begin(_ *sched.ProgramInfo, rng *rand.Rand) {
	k.rng = rng
	k.product = 1
}
func (k *knuthAlg) Observe(sched.Event, *sched.State) {}
func (k *knuthAlg) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	k.product *= float64(len(e))
	return e[k.rng.Intn(len(e))]
}

// EstimateSchedules returns Knuth's Monte Carlo estimate of the number of
// complete schedules of the program, averaged over the given number of
// random descents — the "more exhaustive but heavyweight" estimation §7
// points to when single-run profiling is too coarse. Note it counts
// schedules (decision paths), which coincides with interleavings for
// deterministic fixed-input programs.
func EstimateSchedules(prog func(*sched.Thread), samples int, seed int64, opts Options) float64 {
	if samples <= 0 {
		samples = 100
	}
	alg := &knuthAlg{}
	total := 0.0
	for i := 0; i < samples; i++ {
		sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed + int64(i), ProgSeed: opts.ProgSeed, MaxSteps: opts.MaxSteps}})
		total += alg.product
	}
	return total / float64(samples)
}
