// Package stats implements the statistics used in the paper's evaluation:
// mean/standard deviation summaries, Shannon entropy of sampled
// distributions (Table 3), the Mann–Whitney U test (Table 1's significance
// claim) and the two-sample log-rank test for schedules-to-first-bug
// survival comparisons (Table 4's bold entries).
//
// A product that meets an add or a subtract is written float64(x*y) + z:
// the explicit conversion rounds, so no compiler fuses the two into one
// multiply-add, and arm64 computes the same bits as amd64 (ci.sh checks
// the module's arm64 code for fused instructions).
package stats

import (
	"math"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation (n-1 denominator)
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample returns zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d)
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Entropy returns the Shannon entropy (bits) of the empirical distribution
// given by counts. Zero counts are ignored.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= float64(p * math.Log2(p))
	}
	return h
}

// EntropyOfMap is Entropy over a map's values. The counts are sorted
// before summation: entropy is a function of the count multiset, and a
// fixed summation order keeps the result bit-identical across runs
// (float addition is not associative, and map iteration order is not).
func EntropyOfMap[K comparable](counts map[K]int) float64 {
	xs := make([]int, 0, len(counts))
	for _, c := range counts {
		xs = append(xs, c)
	}
	sort.Ints(xs)
	return Entropy(xs)
}

// EntropyBits returns the Shannon entropy (bits) of an int64 count
// histogram, the shape the observability aggregator accumulates.
// Degenerate inputs stay finite: an empty histogram and a single-nonzero-
// bucket histogram both report exactly 0 — never NaN and never a negative
// rounding artifact — so metric snapshots stay JSON-marshalable and
// Prometheus pages never emit a non-numeric sample.
func EntropyBits(hist []int64) float64 {
	var total int64
	nonzero := 0
	for _, v := range hist {
		if v > 0 {
			total += v
			nonzero++
		}
	}
	if total == 0 || nonzero == 1 {
		return 0
	}
	h := 0.0
	for _, v := range hist {
		if v > 0 {
			p := float64(v) / float64(total)
			h -= float64(p * math.Log2(p))
		}
	}
	if math.IsNaN(h) || h < 0 {
		return 0
	}
	return h
}

// NormalSF returns the upper-tail probability P(Z > z) of the standard
// normal distribution.
func NormalSF(z float64) float64 { return float64(0.5 * math.Erfc(z/math.Sqrt2)) }

// ChiSquare1SF returns the upper-tail probability of a chi-square
// distribution with one degree of freedom.
func ChiSquare1SF(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Erfc(math.Sqrt(x / 2))
}

// ChiSquareSF returns the upper-tail probability P(X > x) of a chi-square
// distribution with dof degrees of freedom: the p-value of a goodness-of-fit
// statistic. It is the regularized upper incomplete gamma function
// Q(dof/2, x/2). Non-positive x or dof returns 1.
func ChiSquareSF(x float64, dof int) float64 {
	if x <= 0 || dof <= 0 {
		return 1
	}
	return gammaQ(float64(dof)/2, x/2)
}

// KSUniform is the one-sample Kolmogorov–Smirnov test of ps against the
// uniform distribution on [0, 1]: d is the largest distance between the
// sample's empirical CDF and the identity, p its asymptotic p-value with
// Stephens' small-sample correction (Numerical Recipes probks). Figure 2
// asks it whether a cell's per-session χ² p-values look like draws from
// U(0,1), as they do under uniform sampling. An empty sample returns 0, 1.
func KSUniform(ps []float64) (d, p float64) {
	s := append([]float64(nil), ps...)
	sort.Float64s(s)
	n := float64(len(s))
	for i, x := range s {
		d = max(d, float64(i+1)/n-x, x-float64(i)/n)
	}
	if len(s) == 0 {
		return 0, 1
	}
	lambda := (math.Sqrt(n) + 0.12 + 0.11/math.Sqrt(n)) * d
	sign, prev := 2.0, 0.0
	for j := 1.0; j <= 100; j++ {
		term := float64(sign * math.Exp(-2*j*j*lambda*lambda))
		p += term
		if math.Abs(term) <= 1e-3*prev || math.Abs(term) <= 1e-8*p {
			return d, min(p, 1)
		}
		sign, prev = -sign, math.Abs(term)
	}
	return d, 1 // the series has not converged: d is too small to reject anything
}

// gammaQ computes the regularized upper incomplete gamma function Q(a, x)
// by the standard series / continued-fraction split (Numerical Recipes
// gammq): the series for P(a,x) converges fast for x < a+1, the Lentz
// continued fraction for Q(a,x) elsewhere.
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return 1
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 1000; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
}

func gammaQCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+float64(a*math.Log(x))-lg) * h
}

// ChiSquareUniform returns the chi-square statistic of observed counts
// against a uniform distribution over classes (classes >= len(counts);
// absent classes count as zero observations).
func ChiSquareUniform(counts []int, classes int) float64 {
	if classes <= 0 {
		return 0
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	exp := float64(n) / float64(classes)
	if exp == 0 {
		return 0
	}
	x := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		x += d * d / exp
	}
	x += float64(float64(classes-len(counts)) * exp)
	return x
}

// MannWhitneyU performs the two-sided Mann–Whitney U test with the normal
// approximation and tie correction, returning the U statistic of xs and the
// two-sided p-value. Samples smaller than 2 return p = 1.
func MannWhitneyU(xs, ys []float64) (u, p float64) {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, x := range xs {
		all = append(all, obs{x, true})
	}
	for _, y := range ys {
		all = append(all, obs{y, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	r1 := 0.0
	tieCorr := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(float64(i+j+1) / 2) // average rank of the tie group (1-based)
		t := float64(j - i)
		tieCorr += float64(t*t*t) - t
		for k := i; k < j; k++ {
			if all[k].first {
				r1 += rank
			}
		}
		i = j
	}
	u = r1 - float64(float64(n1*(n1+1))/2)
	n := float64(n1 + n2)
	mu := float64(float64(n1*n2) / 2)
	sigma2 := float64(n1*n2) / 12 * ((n + 1) - tieCorr/(n*(n-1)))
	if sigma2 <= 0 {
		return u, 1
	}
	z := math.Abs(u-mu) / math.Sqrt(sigma2)
	return u, 2 * NormalSF(z)
}

// Obs is one right-censored observation for the log-rank test: Time is the
// number of schedules to the first bug, or the budget when the bug was not
// found (Event = false).
type Obs struct {
	Time  float64
	Event bool
}

// LogRank performs the two-sample log-rank test and returns the chi-square
// statistic (1 dof) and its p-value. With no events in either sample it
// returns (0, 1).
func LogRank(g1, g2 []Obs) (chi2, p float64) {
	type point struct {
		t  float64
		g1 bool
		ev bool
	}
	pts := make([]point, 0, len(g1)+len(g2))
	for _, o := range g1 {
		pts = append(pts, point{o.Time, true, o.Event})
	}
	for _, o := range g2 {
		pts = append(pts, point{o.Time, false, o.Event})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
	at1, at2 := len(g1), len(g2) // at-risk counts
	var sumO, sumE, sumV float64
	for i := 0; i < len(pts); {
		j := i
		d, d1 := 0, 0 // deaths at this time, deaths in group 1
		rem1, rem2 := 0, 0
		for j < len(pts) && pts[j].t == pts[i].t {
			if pts[j].ev {
				d++
				if pts[j].g1 {
					d1++
				}
			}
			if pts[j].g1 {
				rem1++
			} else {
				rem2++
			}
			j++
		}
		nAll := float64(at1 + at2)
		if d > 0 && nAll > 1 {
			e1 := float64(d) * float64(at1) / nAll
			v := float64(d) * (float64(at1) / nAll) * (float64(at2) / nAll) *
				(nAll - float64(d)) / (nAll - 1)
			sumO += float64(d1)
			sumE += e1
			sumV += v
		}
		at1 -= rem1
		at2 -= rem2
		i = j
	}
	if sumV <= 0 {
		return 0, 1
	}
	diff := sumO - sumE
	chi2 = diff * diff / sumV
	return chi2, ChiSquare1SF(chi2)
}

// Binomial returns C(n, k) as a float64 (exact for small arguments,
// overflow-safe via logarithms for large ones).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	// Exact product while it fits.
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
		if math.IsInf(r, 0) {
			lg, _ := math.Lgamma(float64(n + 1))
			lk, _ := math.Lgamma(float64(k + 1))
			lnk, _ := math.Lgamma(float64(n - k + 1))
			return math.Exp(lg - lk - lnk)
		}
	}
	return r
}

// Multinomial returns the multi-choose coefficient (Σks)! / Π ks! used in
// the paper's bug-probability bounds (§3.4), computed in log space.
func Multinomial(ks ...int) float64 {
	n := 0
	for _, k := range ks {
		if k < 0 {
			return 0
		}
		n += k
	}
	lg, _ := math.Lgamma(float64(n + 1))
	for _, k := range ks {
		lk, _ := math.Lgamma(float64(k + 1))
		lg -= lk
	}
	return math.Exp(lg)
}

// ClusterBound is the §3.4 "clusters" success-probability lower bound for c
// duplicated clusters whose intra-cluster schedule has `perms` equally
// likely interleavings: 1 - (1 - 1/perms)^c.
func ClusterBound(perms float64, c int) float64 {
	if perms <= 0 {
		return 0
	}
	return 1 - math.Pow(1-1/perms, float64(c))
}
