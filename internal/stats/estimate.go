package stats

// Schedule-space coverage estimators. A concurrency-testing campaign samples
// interleaving classes with unknown (and unknowable) support; the campaign
// dashboard wants to answer "how much of the reachable space has this
// algorithm covered?" anyway. Two classical abundance-based estimators over
// the interleaving-fingerprint frequency counts give a principled answer:
//
//   - Good–Turing: the probability mass of unseen classes is estimated by
//     f1/n, the fraction of samples that landed on classes seen exactly
//     once. Its complement is the sample coverage (the probability the next
//     schedule lands on an already-seen class).
//   - Chao1: a lower-bound estimate of the total class richness from the
//     singleton and doubleton counts, Sobs + f1²/(2·f2); the bias-corrected
//     fallback Sobs + f1(f1−1)/2 applies when no doubletons were observed.
//
// Both are functions of the frequency-of-frequencies alone, so they are
// order-independent and bit-identical however the counts were accumulated.

// FreqOfFreq returns (n, f1, f2): the total number of samples and the
// number of classes observed exactly once and exactly twice. Non-positive
// counts are ignored.
func FreqOfFreq(counts []int) (n, f1, f2 int) {
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		n += c
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	return n, f1, f2
}

// GoodTuringUnseen returns the Good–Turing estimate f1/n of the probability
// that the next sample lands on a class never seen before. An empty sample
// returns 1 (everything is unseen).
func GoodTuringUnseen(counts []int) float64 {
	n, f1, _ := FreqOfFreq(counts)
	if n == 0 {
		return 1
	}
	return float64(f1) / float64(n)
}

// GoodTuringCoverage returns the Good–Turing sample-coverage estimate
// 1 − f1/n: the probability the next sample lands on an already-seen class.
// An empty sample returns 0.
func GoodTuringCoverage(counts []int) float64 {
	return 1 - GoodTuringUnseen(counts)
}

// Chao1 returns the Chao1 richness estimate of the number of classes in the
// sampled population: Sobs + f1²/(2·f2), or the bias-corrected
// Sobs + f1(f1−1)/2 when f2 = 0. An empty sample returns 0. Chao1 is a
// lower bound: the true support is at least this large in expectation.
func Chao1(counts []int) float64 {
	sobs := 0
	for _, c := range counts {
		if c > 0 {
			sobs++
		}
	}
	if sobs == 0 {
		return 0
	}
	_, f1, f2 := FreqOfFreq(counts)
	if f2 > 0 {
		return float64(sobs) + float64(f1)*float64(f1)/(2*float64(f2))
	}
	return float64(sobs) + float64(float64(f1)*float64(f1-1)/2)
}

// Chao1Coverage returns Sobs/Chao1: the estimated fraction of reachable
// classes already observed ("URW has covered an estimated 84% of reachable
// classes"). An empty sample returns 0; a sample with no singletons or
// doubletons returns 1 (the estimator believes the space is exhausted).
func Chao1Coverage(counts []int) float64 {
	est := Chao1(counts)
	if est == 0 {
		return 0
	}
	sobs := 0
	for _, c := range counts {
		if c > 0 {
			sobs++
		}
	}
	return float64(sobs) / est
}

// CountsOfMap extracts the positive frequency counts of a map in an
// arbitrary order. The estimators above depend only on the count multiset,
// so the order does not matter.
func CountsOfMap[K comparable](m map[K]int) []int {
	out := make([]int, 0, len(m))
	for _, c := range m {
		if c > 0 {
			out = append(out, c)
		}
	}
	return out
}
