package crosscheck

// Schedule-equivalence oracle for the commutation-canonical class
// fingerprint (sched.Result.ClassHash). The engine computes the
// fingerprint incrementally with per-thread/per-object hash-clocks; this
// file re-derives the partition it induces from first principles — an
// explicit dependence graph over each recorded trace, canonicalized by a
// brute-force lexicographically-least linearization — and requires the two
// partitions of the exhaustively enumerated schedule space to coincide
// exactly. A fingerprint that merges two inequivalent schedules (false
// dedup: coverage silently lost) or splits one Mazurkiewicz class in two
// (false distinction: dedup buys nothing) fails here.
//
// The dependence relation, per DESIGN.md §11 (re-implemented here
// independently of internal/sched so the oracle does not inherit engine
// bugs):
//
//   - program order: events of the same thread;
//   - same-object conflicts: two events on the same shared object, unless
//     both are pure readers (OpRead, OpRLock, OpRUnlock);
//   - join edges: an OpJoin depends on every event of the joined thread
//     (joins carry the target's path hash in Event.ObjHash).
//
// Spawn edges need no explicit treatment when partitioning *feasible*
// traces: a child's events can never precede its spawn in any execution,
// so adding the edge never changes which enumerated traces are equivalent.

import (
	"fmt"

	"surw/internal/sched"
	"surw/internal/systematic"
)

// oracleReader mirrors (independently) the engine's reader classification:
// pure observers commute with each other on the same object.
func oracleReader(k sched.OpKind) bool {
	return k == sched.OpRead || k == sched.OpRLock || k == sched.OpRUnlock
}

// dependent is the symmetric dependence relation over events of one trace.
func dependent(a, b sched.Event) bool {
	if a.PathHash == b.PathHash {
		return true // program order
	}
	if a.Obj != 0 && a.Obj == b.Obj {
		return !(oracleReader(a.Kind) && oracleReader(b.Kind))
	}
	// Join edges: a join event carries the joined thread's path hash.
	if a.Kind == sched.OpJoin && a.ObjHash == b.PathHash {
		return true
	}
	if b.Kind == sched.OpJoin && b.ObjHash == a.PathHash {
		return true
	}
	return false
}

// eventLess is a total order on the distinct events of one trace, keyed on
// schedule-independent identity ((PathHash, Seq) is already unique).
func eventLess(a, b sched.Event) bool {
	if a.PathHash != b.PathHash {
		return a.PathHash < b.PathHash
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.ObjHash < b.ObjHash
}

// oracleMix chains one event identity into a running canonical-form hash
// (same shape as the engine's interleaving mix, computed independently).
func oracleMix(h uint64, e sched.Event) uint64 {
	h = (h ^ e.PathHash) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	h = (h ^ (uint64(e.Kind)<<32 ^ e.ObjHash)) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// canonicalClassKey reduces a trace to the fingerprint of its canonical
// form: the lexicographically-least linearization of its dependence graph,
// built greedily by always emitting the minimal event (per eventLess)
// whose dependence predecessors have all been emitted. Two traces are
// happens-before equivalent iff they share a canonical form.
func canonicalClassKey(trace []sched.Event) uint64 {
	n := len(trace)
	succs := make([][]int, n)
	indeg := make([]int, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if dependent(trace[i], trace[j]) {
				succs[i] = append(succs[i], j)
				indeg[j]++
			}
		}
	}
	avail := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			avail = append(avail, i)
		}
	}
	const fnvOffset = 14695981039346656037
	h := uint64(fnvOffset)
	for len(avail) > 0 {
		best := 0
		for k := 1; k < len(avail); k++ {
			if eventLess(trace[avail[k]], trace[avail[best]]) {
				best = k
			}
		}
		i := avail[best]
		avail[best] = avail[len(avail)-1]
		avail = avail[:len(avail)-1]
		h = oracleMix(h, trace[i])
		for _, j := range succs[i] {
			if indeg[j]--; indeg[j] == 0 {
				avail = append(avail, j)
			}
		}
	}
	return h
}

// classPartition accumulates the double partition of an enumeration: every
// executed schedule lands in a fingerprint class (engine's ClassHash) and
// a canonical-form class (this file's ground truth). The oracle demands a
// bijection between the two.
type classPartition struct {
	byFingerprint map[uint64]uint64 // ClassHash -> canonical key first seen with it
	byCanonical   map[uint64]uint64 // canonical key -> ClassHash first seen with it
	err           error
}

func newClassPartition() *classPartition {
	return &classPartition{
		byFingerprint: make(map[uint64]uint64),
		byCanonical:   make(map[uint64]uint64),
	}
}

// observe folds one enumerated schedule into the partition, recording the
// first violation of the bijection.
func (c *classPartition) observe(r *sched.Result) {
	if c.err != nil {
		return
	}
	key := canonicalClassKey(r.Trace)
	if prev, ok := c.byFingerprint[r.ClassHash]; !ok {
		c.byFingerprint[r.ClassHash] = key
	} else if prev != key {
		c.err = fmt.Errorf("class fingerprint %#x merges two happens-before classes (canonical forms %#x and %#x) — false dedup", r.ClassHash, prev, key)
		return
	}
	if prev, ok := c.byCanonical[key]; !ok {
		c.byCanonical[key] = r.ClassHash
	} else if prev != r.ClassHash {
		c.err = fmt.Errorf("happens-before class %#x split across fingerprints %#x and %#x — false distinction", key, prev, r.ClassHash)
	}
}

// verdict is the number of classes, or the first violation of the
// bijection — partial enumeration or not. Without one, the two maps are
// inverse bijections, so their sizes agree.
func (c *classPartition) verdict(name string, exhausted bool, opts Options) (int, error) {
	if !exhausted && !opts.AllowPartial {
		return 0, fmt.Errorf("crosscheck: %s: class-equivalence enumeration exceeded %d schedules", name, opts.MaxSchedules)
	}
	if c.err != nil {
		return 0, fmt.Errorf("crosscheck: %s: %w", name, c.err)
	}
	return len(c.byFingerprint), nil
}

// classEquivalence is the tentpole oracle: exhaustively enumerate prog,
// and require the engine's ClassHash partition of the schedule space to
// coincide with the brute-force happens-before partition. Past the
// enumeration budget with AllowPartial set, the schedules enumerated so
// far must still partition alike.
func classEquivalence(name string, prog func(*sched.Thread), opts Options) (classes int, err error) {
	part := newClassPartition()
	oracle := systematic.Explore(prog, systematic.Options{
		MaxSchedules: opts.MaxSchedules,
		RecordTrace:  true,
		Observe:      part.observe,
	})
	return part.verdict(name, oracle.Exhausted, opts)
}
