package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	approx(t, s.Mean, 5, 1e-12, "mean")
	approx(t, s.Std, math.Sqrt(32.0/7.0), 1e-12, "std")
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty summary wrong")
	}
	if one := Summarize([]float64{3}); one.Std != 0 || one.Mean != 3 {
		t.Fatal("singleton summary wrong")
	}
}

func TestEntropy(t *testing.T) {
	approx(t, Entropy([]int{1, 1}), 1, 1e-12, "fair coin")
	approx(t, Entropy([]int{1, 1, 1, 1}), 2, 1e-12, "fair d4")
	approx(t, Entropy([]int{10}), 0, 1e-12, "constant")
	approx(t, Entropy([]int{3, 1}), -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25)), 1e-12, "3:1")
	approx(t, Entropy(nil), 0, 1e-12, "empty")
	approx(t, EntropyOfMap(map[string]int{"a": 1, "b": 1}), 1, 1e-12, "map")
}

func TestEntropyBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, 0, len(raw))
		for _, r := range raw {
			if r > 0 {
				counts = append(counts, int(r))
			}
		}
		h := Entropy(counts)
		if h < -1e-9 {
			return false
		}
		if len(counts) > 0 && h > math.Log2(float64(len(counts)))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalSF(t *testing.T) {
	approx(t, NormalSF(0), 0.5, 1e-12, "SF(0)")
	approx(t, NormalSF(1.959963985), 0.025, 1e-6, "SF(1.96)")
	approx(t, NormalSF(-1.959963985), 0.975, 1e-6, "SF(-1.96)")
}

func TestChiSquare1SF(t *testing.T) {
	approx(t, ChiSquare1SF(3.841459), 0.05, 1e-5, "5% critical value")
	approx(t, ChiSquare1SF(6.634897), 0.01, 1e-5, "1% critical value")
	approx(t, ChiSquare1SF(0), 1, 1e-12, "zero")
	approx(t, ChiSquare1SF(-1), 1, 1e-12, "negative")
}

func TestChiSquareUniform(t *testing.T) {
	approx(t, ChiSquareUniform([]int{25, 25, 25, 25}, 4), 0, 1e-12, "uniform")
	// Observed [30,20], expected [25,25]: 2*25/25 = 2? (30-25)^2/25*2 = 2.
	approx(t, ChiSquareUniform([]int{30, 20}, 2), 2, 1e-12, "skewed")
	// Missing class contributes its full expectation.
	approx(t, ChiSquareUniform([]int{30}, 2), (30-15.0)*(30-15)/15+15, 1e-12, "missing class")
}

func TestMannWhitneyKnownValue(t *testing.T) {
	// Textbook example: clearly separated samples give small p.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	u, p := MannWhitneyU(x, y)
	approx(t, u, 0, 1e-12, "U")
	if p > 0.001 {
		t.Fatalf("p = %g, want < 0.001", p)
	}
	// Identical samples: U = n1*n2/2, p = 1.
	u, p = MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5})
	approx(t, u, 4.5, 1e-12, "tied U")
	if p < 0.99 {
		t.Fatalf("tied p = %g, want ~1", p)
	}
	if _, p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Fatal("empty sample must give p=1")
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := 2+rng.Intn(10), 2+rng.Intn(10)
		x := make([]float64, n1)
		y := make([]float64, n2)
		for i := range x {
			x[i] = float64(rng.Intn(8))
		}
		for i := range y {
			y[i] = float64(rng.Intn(8))
		}
		u1, p1 := MannWhitneyU(x, y)
		u2, p2 := MannWhitneyU(y, x)
		approx(t, u1+u2, float64(n1*n2), 1e-9, "U1+U2")
		approx(t, p1, p2, 1e-9, "p symmetry")
		if p1 < 0 || p1 > 1.0000001 {
			t.Fatalf("p out of range: %g", p1)
		}
	}
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 2
	}
	if _, p := MannWhitneyU(x, y); p > 1e-4 {
		t.Fatalf("shifted samples p = %g", p)
	}
}

func TestLogRankIdenticalGroups(t *testing.T) {
	g := []Obs{{1, true}, {2, true}, {3, true}, {4, false}}
	chi2, p := LogRank(g, g)
	approx(t, chi2, 0, 1e-9, "chi2")
	if p < 0.99 {
		t.Fatalf("identical groups p = %g", p)
	}
}

func TestLogRankSeparatedGroups(t *testing.T) {
	fast := make([]Obs, 20)
	slow := make([]Obs, 20)
	for i := range fast {
		fast[i] = Obs{Time: float64(i + 1), Event: true}
		slow[i] = Obs{Time: float64(100 + i), Event: true}
	}
	chi2, p := LogRank(fast, slow)
	if chi2 < 10 || p > 0.01 {
		t.Fatalf("chi2 = %g, p = %g; expected strong separation", chi2, p)
	}
}

func TestLogRankCensoring(t *testing.T) {
	// All-censored samples carry no events: p must be 1.
	g1 := []Obs{{10, false}, {10, false}}
	g2 := []Obs{{10, false}, {10, false}}
	if _, p := LogRank(g1, g2); p != 1 {
		t.Fatalf("all-censored p = %g", p)
	}
	// Censored observations still count as at-risk.
	found := []Obs{{1, true}, {2, true}, {3, true}}
	censored := []Obs{{100, false}, {100, false}, {100, false}}
	chi2, p := LogRank(found, censored)
	if chi2 <= 0 || p > 0.2 {
		t.Fatalf("chi2 = %g p = %g; finding vs never-finding should differ", chi2, p)
	}
}

func TestBinomial(t *testing.T) {
	approx(t, Binomial(10, 5), 252, 1e-9, "C(10,5)")
	approx(t, Binomial(52, 5), 2598960, 1e-6, "C(52,5)")
	approx(t, Binomial(5, 0), 1, 1e-12, "C(5,0)")
	approx(t, Binomial(5, 6), 0, 1e-12, "C(5,6)")
	approx(t, Binomial(5, -1), 0, 1e-12, "C(5,-1)")
	// Large argument goes through the log path without overflow.
	b := Binomial(400, 200)
	if math.IsInf(b, 0) || math.IsNaN(b) || b <= 0 {
		t.Fatalf("C(400,200) = %g", b)
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n, k := int(n8%60), int(k8%60)
		if k > n {
			n, k = k, n
		}
		a, b := Binomial(n, k), Binomial(n, n-k)
		return math.Abs(a-b) <= 1e-9*math.Max(a, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultinomial(t *testing.T) {
	approx(t, Multinomial(5, 5), 252, 1e-6, "multi(5,5)")
	approx(t, Multinomial(2, 2, 2), 90, 1e-6, "multi(2,2,2)")
	approx(t, Multinomial(3), 1, 1e-9, "multi(3)")
	approx(t, Multinomial(0, 0), 1, 1e-9, "multi(0,0)")
	approx(t, Multinomial(-1, 2), 0, 1e-12, "negative")
}

func TestClusterBound(t *testing.T) {
	approx(t, ClusterBound(2, 1), 0.5, 1e-12, "one cluster")
	approx(t, ClusterBound(2, 2), 0.75, 1e-12, "two clusters")
	approx(t, ClusterBound(0, 3), 0, 1e-12, "degenerate")
	// More clusters can only help.
	if ClusterBound(100, 10) <= ClusterBound(100, 1) {
		t.Fatal("bound not monotone in c")
	}
}

func TestChiSquareSF(t *testing.T) {
	// dof=1 must agree with the closed-form erfc implementation.
	for _, x := range []float64{0.1, 1, 2.5, 7, 20} {
		approx(t, ChiSquareSF(x, 1), ChiSquare1SF(x), 1e-9, "dof=1")
	}
	// dof=2 is exponential: SF(x) = exp(-x/2).
	for _, x := range []float64{0.5, 2, 4, 10} {
		approx(t, ChiSquareSF(x, 2), math.Exp(-x/2), 1e-9, "dof=2")
	}
	// Standard critical values (statistical tables).
	approx(t, ChiSquareSF(18.307, 10), 0.05, 5e-4, "chi2(0.95,10)")
	approx(t, ChiSquareSF(15.086, 5), 0.01, 2e-4, "chi2(0.99,5)")
	approx(t, ChiSquareSF(124.342, 100), 0.05, 5e-4, "chi2(0.95,100)")
	// Degenerate inputs.
	if ChiSquareSF(-1, 5) != 1 || ChiSquareSF(0, 5) != 1 || ChiSquareSF(3, 0) != 1 {
		t.Fatal("degenerate inputs must yield 1")
	}
	// Monotone decreasing in x, for large dof too (both branches of the
	// series/continued-fraction split).
	prev := 1.0
	for x := 1.0; x < 600; x += 7 {
		p := ChiSquareSF(x, 251)
		if p > prev+1e-12 {
			t.Fatalf("SF not monotone at x=%v: %v > %v", x, p, prev)
		}
		prev = p
	}
}

func TestKSUniform(t *testing.T) {
	// By hand: sorted 0.1, 0.4, 0.7 against i/3 gives D+ = 1 - 0.7 = 0.3
	// and D- = 0.1, so d = 0.3; λ = (√3 + 0.12 + 0.11/√3)·0.3 = 0.57467 and
	// Q(λ) = 2·Σ (-1)^(j-1) exp(-2 j² λ²) = 2·(0.51661 - 0.07122 + 0.00262
	// - 0.00003) = 0.8959.
	d, p := KSUniform([]float64{0.7, 0.1, 0.4})
	approx(t, d, 0.3, 1e-12, "d")
	approx(t, p, 0.8959447, 1e-6, "p")
	// Ten p-values piled near zero are rejected; ten spread evenly are not.
	var low, even []float64
	for i := 0; i < 10; i++ {
		low = append(low, 1e-9*float64(i+1))
		even = append(even, (float64(i)+0.5)/10)
	}
	if d, p := KSUniform(low); d < 0.99 || p > 1e-3 {
		t.Fatalf("p-values near 0: d = %v, p = %v", d, p)
	}
	if d, p := KSUniform(even); math.Abs(d-0.05) > 1e-12 || p != 1 {
		t.Fatalf("evenly spread p-values: d = %v, p = %v", d, p)
	}
	if d, p := KSUniform(nil); d != 0 || p != 1 {
		t.Fatalf("empty sample: d = %v, p = %v", d, p)
	}
}
