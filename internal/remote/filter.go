package remote

// The fleet-wide seen-class filter: a fixed-size counting Bloom filter
// over commutation-class fingerprints (sched.Result.ClassHash). The
// coordinator ingests the class tallies of every accepted session record
// into it and reads two gauges back (Stats): observations and distinct
// classes. Nothing acts on a verdict of it — no session is cut short on
// its word — so it is gauge-only, and the benchmark's filter_add_ns rung
// is its other caller.
//
// The structure is deliberately approximate in one direction only:
// counters are shared (hash collisions can over-count a class) and
// saturate at 255, so the filter may take a new class for a seen one that
// is merely co-located with hot ones. That skews a live gauge, never a
// result — dedup-verified aggregates are computed from stored records,
// not from the filter — and the false-positive rate is kept small by
// sizing (default 1 MiB of counters for k=4 hashes). The filter never
// under-counts, so "not saturated" is reliable.

import "sync"

// filterHashes is the number of counter slots one fingerprint touches.
const filterHashes = 4

// DefaultFilterSize is the default number of 8-bit counters (1 MiB).
const DefaultFilterSize = 1 << 20

// DefaultClassThreshold is the default saturation threshold: a class
// observed by at least this many session records is considered saturated.
const DefaultClassThreshold = 8

// ClassFilter is a concurrency-safe counting Bloom filter over uint64
// class fingerprints.
type ClassFilter struct {
	mu        sync.RWMutex
	size      int     // number of counters, a power of two
	counters  []uint8 // allocated by the first Add: a campaign without coverage never pays for it
	threshold uint8

	observed int64 // fingerprints ingested (with multiplicity)
	distinct int64 // ingests whose fingerprint was unseen (min counter was 0)
}

// NewClassFilter builds a filter with size 8-bit counters (0 =
// DefaultFilterSize; sizes are rounded up to a power of two so slot
// indexing is a mask) and the given saturation threshold (<=0 =
// DefaultClassThreshold, capped at 255).
func NewClassFilter(size, threshold int) *ClassFilter {
	if size <= 0 {
		size = DefaultFilterSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	if threshold <= 0 {
		threshold = DefaultClassThreshold
	}
	if threshold > 255 {
		threshold = 255
	}
	return &ClassFilter{size: n, threshold: uint8(threshold)}
}

// slots derives the filter's counter indices for one fingerprint by
// double hashing (Kirsch-Mitzenmacher): two independent splitmix64
// remixes of the fingerprint seed an arithmetic probe sequence. Remixing
// per class (rather than walking a shared sequence) keeps distinct
// fingerprints' probe sets independent even when the fingerprints
// themselves are arithmetically related.
func (f *ClassFilter) slots(class uint64, out *[filterHashes]uint64) {
	mask := uint64(f.size - 1)
	h1 := splitmix64(class)
	h2 := splitmix64(class^0x9E3779B97F4A7C15) | 1
	for i := 0; i < filterHashes; i++ {
		out[i] = (h1 + uint64(i)*h2) & mask
	}
}

// splitmix64 is the finalizer of the splitmix64 generator, a strong
// 64-bit bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Add ingests one observation of class and reports whether the class was
// novel (its estimated count was zero before the add). Counters saturate
// at 255 and never decrease.
func (f *ClassFilter) Add(class uint64) (novel bool) {
	var s [filterHashes]uint64
	f.slots(class, &s)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counters == nil {
		f.counters = make([]uint8, f.size)
	}
	min := uint8(255)
	for _, i := range s {
		if f.counters[i] < min {
			min = f.counters[i]
		}
	}
	for _, i := range s {
		if f.counters[i] < 255 {
			f.counters[i]++
		}
	}
	f.observed++
	if min == 0 {
		f.distinct++
		return true
	}
	return false
}

// Saturated reports whether class's estimated count has reached the
// filter's threshold.
func (f *ClassFilter) Saturated(class uint64) bool {
	return f.Count(class) >= int(f.threshold)
}

// Count returns the class's estimated observation count (capped at 255);
// zero for every class of a filter nothing was added to.
func (f *ClassFilter) Count(class uint64) int {
	var s [filterHashes]uint64
	f.slots(class, &s)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.counters == nil {
		return 0
	}
	min := uint8(255)
	for _, i := range s {
		if f.counters[i] < min {
			min = f.counters[i]
		}
	}
	return int(min)
}

// Stats returns the ingest totals: observations with multiplicity and the
// estimated number of distinct classes among them.
func (f *ClassFilter) Stats() (observed, distinct int64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.observed, f.distinct
}
