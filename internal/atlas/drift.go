package atlas

import (
	"math"
	"math/bits"

	"surw/internal/stats"
)

// Uniformity-drift thresholds. The alarm is deliberately conservative: a
// genuinely uniform sampler's p-value is itself uniform on (0,1), and the
// tracker re-tests every driftCheckEvery samples with a latched alarm, so
// the false-alarm threshold must sit far below any plausible check count
// times a per-check tolerance. A biased sampler's p collapses toward zero
// exponentially in the sample count, so 1e-6 loses no sensitivity.
const (
	// DriftAlarmP is the p-value below which a cell is declared drifted.
	DriftAlarmP = 1e-6
	// driftCheckEvery is how often (in observed schedules) the streaming
	// tracker recomputes the chi-square.
	driftCheckEvery = 64
	// driftMinSamples is the minimum stream length before the alarm can
	// arm; below it the chi-square approximation is too coarse to trust.
	driftMinSamples = 200
)

// Drift is a streaming uniformity test over one cell's class-fingerprint
// stream: the observed-support chi-square against "every seen class
// equally likely", the distribution URW provably samples (and SURW
// samples within a Δ) on targets whose classes biject with filtered
// interleavings. Beside the per-class counts it keeps their sum of squares,
// so a test reads three integers whatever the number of classes. The alarm
// latches: once a checkpoint rejects uniformity, the cell stays flagged
// even if later samples wash the statistic out.
type Drift struct {
	counts  map[uint64]int
	samples int
	sumSq   uint64 // Σ counts[c]²
	alarmed bool
}

// Observe feeds one schedule's class fingerprint.
func (d *Drift) Observe(class uint64) {
	if d.counts == nil {
		d.counts = make(map[uint64]int)
	}
	c := d.counts[class]
	d.counts[class] = c + 1
	d.sumSq += 2*uint64(c) + 1 // (c+1)² − c²
	d.samples++
	if d.samples%driftCheckEvery == 0 && d.test().Alarm {
		d.alarmed = true
	}
}

// Snapshot returns the current test state, including the latched alarm.
func (d *Drift) Snapshot() DriftSnapshot {
	s := d.test()
	s.Alarm = s.Alarm || d.alarmed
	return s
}

func (d *Drift) test() DriftSnapshot {
	return uniformityTest(d.samples, len(d.counts), d.sumSq)
}

// DriftSnapshot is the exported uniformity state of one cell.
type DriftSnapshot struct {
	Samples   int     `json:"samples"`
	Classes   int     `json:"classes"`
	ChiSquare float64 `json:"chi_square"`
	P         float64 `json:"p"`
	Alarm     bool    `json:"alarm"`
}

// DriftFromCounts computes the same uniformity test from a complete
// class-count map — the coordinator's path, where the per-cell counts are
// a pure function of the ingested run-store and need no latching to be
// deterministic.
func DriftFromCounts(counts map[uint64]int) DriftSnapshot {
	var n, k int
	var sumSq uint64
	for _, c := range counts {
		if c > 0 {
			n += c
			k++
			sumSq += uint64(c) * uint64(c)
		}
	}
	return uniformityTest(n, k, sumSq)
}

// uniformityTest is the chi-square of n samples over k seen classes whose
// counts square-sum to sumSq, against k equally likely classes:
// Σ(c − n/k)²/(n/k) = (k·Σc² − n²)/n. The numerator is an exact integer
// (128 bits of it, non-negative by Cauchy–Schwarz), so one multiset of
// counts has one statistic, whatever order it was summed in.
func uniformityTest(n, k int, sumSq uint64) DriftSnapshot {
	s := DriftSnapshot{Samples: n, Classes: k, P: 1}
	if k < 2 {
		return s
	}
	hi, lo := bits.Mul64(uint64(k), sumSq)
	nhi, nlo := bits.Mul64(uint64(n), uint64(n))
	lo, borrow := bits.Sub64(lo, nlo, 0)
	hi, _ = bits.Sub64(hi, nhi, borrow)
	s.ChiSquare = (math.Ldexp(float64(hi), 64) + float64(lo)) / float64(n)
	s.P = stats.ChiSquareSF(s.ChiSquare, k-1)
	s.Alarm = n >= driftMinSamples && n >= 3*k && s.P < DriftAlarmP
	return s
}
