package profile

import "surw/internal/sched"

// CountKey names one of a profile's per-thread counters for the tests of
// package profile_test.
type CountKey struct {
	LID  int
	Kind sched.OpKind
	Obj  uint64
}

// PerThread returns the counts Instantiate reads — events per (thread,
// kind, object), averaged over the runs — in a form that does not depend on
// how the collector lays them out.
func (p *Profile) PerThread() map[CountKey]int {
	out := make(map[CountKey]int, len(p.touched))
	for _, c := range p.touched {
		k := CountKey{LID: int(c.lid), Kind: sched.OpKind(c.idx & (1<<kindBits - 1)), Obj: p.Objs[c.idx>>kindBits].Hash}
		out[k] += int(p.counts[c.lid][c.idx])
	}
	return out
}
