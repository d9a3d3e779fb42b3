package crosscheck

import (
	"fmt"
	"math/rand"
	"strings"

	"surw/internal/core"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/internal/systematic"
)

// firstEnabled is a deliberately broken pickFrom policy: it always runs the
// first enabled thread. It concentrates all probability mass on one
// interleaving per program and must be rejected instantly by the gate.
type firstEnabled struct{}

func (firstEnabled) Name() string                            { return "mutant-first-enabled" }
func (firstEnabled) Begin(*sched.ProgramInfo, *rand.Rand)    {}
func (firstEnabled) Next(st *sched.State) sched.ThreadID     { return st.Enabled()[0] }
func (firstEnabled) Observe(ev sched.Event, st *sched.State) {}

// infoOverride feeds an algorithm a falsified profile, modelling a count-
// estimation bug (here: an off-by-one in one thread's event count). The
// wrapper forwards everything else untouched.
type infoOverride struct {
	sched.Algorithm
	info *sched.ProgramInfo
}

func (o infoOverride) Name() string { return "mutant-off-by-one(" + o.Algorithm.Name() + ")" }

func (o infoOverride) Begin(_ *sched.ProgramInfo, rng *rand.Rand) { o.Algorithm.Begin(o.info, rng) }

// ObserveSpawn must be forwarded explicitly: embedding the Algorithm
// interface hides the optional SpawnObserver extension.
func (o infoOverride) ObserveSpawn(parent, child sched.ThreadID, st *sched.State) {
	if so, ok := o.Algorithm.(sched.SpawnObserver); ok {
		so.ObserveSpawn(parent, child, st)
	}
}

// Mutant pairs a deliberately biased sampler with the reason it is broken.
type Mutant struct {
	Name string
	Alg  sched.Algorithm
}

// MutantVerdict is the gate's decision on one sampler.
type MutantVerdict struct {
	Name     string
	Gate     GateResult
	Rejected bool
}

// MutationReport is the outcome of a MutationSensitivity run.
type MutationReport struct {
	Real    MutantVerdict // the genuine URW, which must pass
	Mutants []MutantVerdict
	Classes int
	Trials  int
}

func (r *MutationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "uniformity gate over %d classes, %d trials:\n", r.Classes, r.Trials)
	fmt.Fprintf(&b, "  %-28s pass  (%s)\n", r.Real.Name, r.Real.Gate)
	for _, m := range r.Mutants {
		verdict := "REJECTED"
		if !m.Rejected {
			verdict = "escaped!"
		}
		fmt.Fprintf(&b, "  %-28s %s (%s)\n", m.Name, verdict, m.Gate)
	}
	return b.String()
}

// bitshiftK is the Figure 1 instance used by the self-test: C(10,5) = 252
// interleaving classes, small enough to enumerate and large enough that a
// biased sampler's chi-square statistic explodes.
const bitshiftK = 5

// bitshiftFilter projects fingerprints onto the worker threads' atomic
// updates — the counted events of the paper's uniformity claim. The
// blocking joins around them are excluded (URW's uniformity theorem
// assumes no blocking synchronization).
func bitshiftFilter(ev sched.Event) bool { return ev.Kind == sched.OpRMW }

// offByOneInfo is BitshiftInfo with one thread's event count overestimated
// by one — the paper's count estimates must be exact for URW's uniformity
// proof, and this models the smallest possible estimation bug.
func offByOneInfo() *sched.ProgramInfo {
	info := sctbench.BitshiftInfo(bitshiftK)
	info.Events[1]++
	info.InterestingEvents[1]++
	info.TotalEvents++
	return info
}

// Mutants returns the seeded biased sampler variants. Each must be
// rejected by the uniformity gate for the oracle to count as sensitive.
func Mutants() []Mutant {
	return []Mutant{
		// Degenerate pickFrom: always the first enabled thread.
		{"first-enabled-pickfrom", firstEnabled{}},
		// Unweighted walk posing as a uniform sampler: uniform over
		// *threads* per step is far from uniform over *interleavings*.
		{"unweighted-random-walk", core.NewRandomWalk()},
		// Real URW driven by an off-by-one count estimate.
		{"off-by-one-count-estimate", infoOverride{Algorithm: core.NewURW(), info: offByOneInfo()}},
	}
}

// MutationSensitivity proves the statistical oracle has teeth: on the
// Figure 1 bit-shift program, the genuine URW must pass the chi-square
// uniformity gate at pFloor while every deliberately biased variant from
// Mutants must be rejected. trials <= 0 defaults to 3000 (about 12 samples
// per class). The returned report is non-nil whenever the run completed,
// even on gate failure.
func MutationSensitivity(trials int, seed int64, pFloor float64) (*MutationReport, error) {
	if trials <= 0 {
		trials = 3000
	}
	prog := sctbench.Bitshift(bitshiftK).Prog
	info := sctbench.BitshiftInfo(bitshiftK)
	oracle := systematic.Explore(prog, systematic.Options{TraceFilter: bitshiftFilter})
	if !oracle.Exhausted {
		return nil, fmt.Errorf("crosscheck: bitshift(%d) enumeration not exhausted", bitshiftK)
	}
	rep := &MutationReport{Classes: len(oracle.Interleavings), Trials: trials}

	gate, err := Uniformity(prog, core.NewURW(), info, oracle.Interleavings, bitshiftFilter, trials, seed)
	if err != nil {
		return rep, err
	}
	rep.Real = MutantVerdict{Name: "URW (genuine)", Gate: gate, Rejected: gate.P < pFloor}
	if rep.Real.Rejected {
		return rep, fmt.Errorf("crosscheck: genuine URW rejected by its own gate (%s < %g) — gate miscalibrated or URW regressed", gate, pFloor)
	}

	for _, m := range Mutants() {
		gate, err := Uniformity(prog, m.Alg, info, oracle.Interleavings, bitshiftFilter, trials, seed)
		if err != nil {
			return rep, fmt.Errorf("crosscheck: mutant %s: %w", m.Name, err)
		}
		v := MutantVerdict{Name: m.Name, Gate: gate, Rejected: gate.P < pFloor}
		rep.Mutants = append(rep.Mutants, v)
		if !v.Rejected {
			return rep, fmt.Errorf("crosscheck: mutant %s escaped the uniformity gate (%s >= %g) — the oracle has no teeth", m.Name, gate, pFloor)
		}
	}
	return rep, nil
}
