package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"surw/internal/report"
	"surw/internal/runner"
	"surw/internal/stats"
)

// Fig2K is the per-thread event count of the Figure 1/2 program (the paper
// uses 5: 252 interleavings).
const Fig2K = 5

// Fig2Algorithms is Figure 2's row order.
var Fig2Algorithms = []string{"URW", "RW", "PCT-10"}

// Fig2Sessions is how many sessions each algorithm splits its Fig2Trials
// schedules over, so that its χ² has a spread.
const Fig2Sessions = 10

// Fig2Result holds the Figure 2 histograms, pooled over each algorithm's
// sessions, and each session's χ² against uniform, in session order.
type Fig2Result struct {
	Trials     int
	Classes    int
	Histograms map[string]map[string]int // algorithm -> final x -> count
	ChiSquare  map[string][]float64
	KSP        map[string]float64 // KS p-value of the sessions' χ² p-values against U(0,1)
	gridRun
}

// fig2Grid is the Figure 1 program (Fig1/bitshift_<Fig2K>) under each
// Figure 2 algorithm, a cell of Fig2Sessions coverage-recording sessions
// each.
func fig2Grid(sc Scale) grid {
	tgt, _ := ByName(fmt.Sprintf("Fig1/bitshift_%d", Fig2K))
	limit := max(sc.Fig2Trials/Fig2Sessions, 1)
	g := grid{algs: Fig2Algorithms, line: func(_ int, res *runner.Result) string {
		return fmt.Sprintf("%-6s %d sessions x %d schedules", res.Algorithm, len(res.Sessions), res.Limit)
	}}
	for _, alg := range Fig2Algorithms {
		g.cells = append(g.cells, runner.Cell{Target: tgt, Alg: alg, Config: runner.Config{
			Sessions: Fig2Sessions, Limit: limit, Seed: sc.Seed, Coverage: true, CoverageEvery: limit}})
	}
	return g
}

// Figure2 samples the Figure 1 program with URW, Random Walk and PCT-10 and
// tallies the distribution of the final value of x (the paper's Figure 2
// histograms). URW is provably uniform over the 252 classes; the baselines
// are heavily skewed.
func Figure2(sc Scale, progress Progress) *Fig2Result {
	res := &Fig2Result{Classes: int(stats.Binomial(2*Fig2K, Fig2K)), Histograms: map[string]map[string]int{},
		ChiSquare: map[string][]float64{}, KSP: map[string]float64{}, gridRun: run(sc, fig2Grid(sc), progress)}
	for _, cell := range res.results {
		alg, hist, ps := cell.Algorithm, map[string]int{}, []float64(nil)
		res.Trials = cell.Limit * len(cell.Sessions)
		for _, s := range cell.Sessions {
			for b, n := range s.Cov.Behaviors {
				hist[b] += n
			}
			// Sorted: float sums depend on their order, and a map's is random.
			chi := stats.ChiSquareUniform(slices.Sorted(maps.Values(s.Cov.Behaviors)), res.Classes)
			res.ChiSquare[alg] = append(res.ChiSquare[alg], chi)
			ps = append(ps, stats.ChiSquareSF(chi, res.Classes-1))
		}
		res.Histograms[alg] = hist
		_, res.KSP[alg] = stats.KSUniform(ps)
	}
	return res
}

// Render prints the summary table and, when full is set, the per-algorithm
// histograms (the actual Figure 2 panels). χ² is each algorithm's median
// [min-max] over its sessions.
func (f *Fig2Result) Render(full bool) string {
	var b strings.Builder
	tb := report.NewTable(
		fmt.Sprintf("Figure 2: distribution of final x over %d schedules in %d sessions (%d classes)",
			f.Trials, Fig2Sessions, f.Classes),
		"Algorithm", "Distinct", "Entropy(bits)", "ChiSq median [min-max]", "KS p")
	for _, name := range Fig2Algorithms {
		chi := slices.Sorted(slices.Values(f.ChiSquare[name]))
		n := len(chi)
		tb.AddRow(name, fmt.Sprint(len(f.Histograms[name])), fmt.Sprintf("%.2f", stats.EntropyOfMap(f.Histograms[name])),
			fmt.Sprintf("%.1f [%.1f-%.1f]", (chi[(n-1)/2]+chi[n/2])/2, chi[0], chi[n-1]), fmt.Sprintf("%.2g", f.KSP[name]))
	}
	tb.AddFooter(fmt.Sprintf("uniform reference entropy = %.2f bits; chi-square per session, df = %d;",
		math.Log2(float64(f.Classes)), f.Classes-1))
	tb.AddFooter("KS p: the sessions' chi-square p-values against U(0,1)")
	b.WriteString(tb.String())
	if full {
		for _, name := range Fig2Algorithms {
			b.WriteString("\n")
			b.WriteString(report.Histogram("Figure 2 ("+name+"): final x histogram", f.Histograms[name], 60))
		}
	}
	return b.String()
}
