package experiments

import (
	"fmt"
	"strings"

	"surw/internal/report"
	"surw/internal/runner"
	"surw/internal/stats"
)

// FTPAlgorithms is the case study's algorithm set (POS is excluded, as in
// the paper, because the interesting events are not raw memory races).
var FTPAlgorithms = []string{"SURW", "PCT-3", "PCT-10", "RW"}

// FTPResult holds the raw data behind Table 3 and Figure 5.
type FTPResult struct {
	Scale Scale
	// Trials[alg] holds one runner.Result per trial (fresh command shuffle
	// per trial, one session each).
	Trials map[string][]*runner.Result
}

// ftpGrid is the (trial × algorithm) grid of the case study: per trial a
// fresh shuffled client script set — the trial's target, a deterministic
// function of its program seed, which its name carries — and one
// coverage-recording session per algorithm on a seed of the trial's.
func ftpGrid(sc Scale) grid {
	g := grid{algs: FTPAlgorithms, line: func(i int, res *runner.Result) string {
		cov := res.Sessions[0].Cov
		return fmt.Sprintf("trial %d %-6s distinct ilv=%d beh=%d", i/len(FTPAlgorithms), res.Algorithm,
			len(cov.Interleavings), len(cov.Behaviors))
	}}
	for trial := 0; trial < sc.FTPTrials; trial++ {
		tgt, _ := ByName(fmt.Sprintf("LightFTP@%d", sc.Seed+int64(trial)*97))
		for _, alg := range FTPAlgorithms {
			g.cells = append(g.cells, runner.Cell{Target: tgt, Alg: alg, Config: runner.Config{
				Sessions:      1,
				Limit:         sc.FTPLimit,
				Seed:          sc.Seed + int64(trial)*13_001,
				Coverage:      true,
				CoverageEvery: max(sc.FTPLimit/25, 1),
			}})
		}
	}
	return g
}

// LightFTP runs the case study: 10^4 schedules per trial in the paper;
// interleaving and behaviour coverage and their Shannon entropies are
// recorded per trial.
func LightFTP(sc Scale, progress Progress) *FTPResult {
	out := &FTPResult{Scale: sc, Trials: make(map[string][]*runner.Result)}
	for _, res := range run(sc, ftpGrid(sc), progress).results {
		// cells are trial-major, so appends land in trial order per alg.
		out.Trials[res.Algorithm] = append(out.Trials[res.Algorithm], res)
	}
	return out
}

// entropies returns the per-trial interleaving and behaviour entropies.
func (r *FTPResult) entropies(alg string) (ilv, beh []float64) {
	for _, res := range r.Trials[alg] {
		cov := res.Sessions[0].Cov
		ilv = append(ilv, cov.InterleavingEntropy())
		beh = append(beh, cov.BehaviorEntropy())
	}
	return
}

// Table3 renders the Shannon entropy summary (paper Table 3).
func (r *FTPResult) Table3() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 3: Shannon entropy on LightFTP (%d trials x %d schedules)",
			r.Scale.FTPTrials, r.Scale.FTPLimit),
		append([]string{"Entropy"}, FTPAlgorithms...)...)
	ilvRow := []string{"Interleavings"}
	behRow := []string{"Behaviors"}
	for _, alg := range FTPAlgorithms {
		ilv, beh := r.entropies(alg)
		si, sb := stats.Summarize(ilv), stats.Summarize(beh)
		ilvRow = append(ilvRow, fmt.Sprintf("%.2f ± %.2f", si.Mean, si.Std))
		behRow = append(behRow, fmt.Sprintf("%.2f ± %.2f", sb.Mean, sb.Std))
	}
	tb.AddRow(ilvRow...)
	tb.AddRow(behRow...)
	tb.AddFooter("larger entropy = more even sampling; interleavings are the fs mutations of two clients")
	if r.Scale.Metrics != nil {
		tb.AddFooter(r.Scale.Metrics.Summary())
	}
	return tb
}

// covCurve aggregates the coverage series across trials: mean distinct
// interleavings and behaviours at each recorded schedule count.
func (r *FTPResult) covCurve(alg string) (x, ilv, beh []float64) {
	trials := r.Trials[alg]
	if len(trials) == 0 {
		return
	}
	n := len(trials[0].Sessions[0].Cov.Series)
	for i := 0; i < n; i++ {
		var xi float64
		var is, bs []float64
		for _, res := range trials {
			series := res.Sessions[0].Cov.Series
			if i >= len(series) {
				continue
			}
			xi = float64(series[i].Schedules)
			is = append(is, float64(series[i].Interleavings))
			bs = append(bs, float64(series[i].Behaviors))
		}
		x = append(x, xi)
		ilv = append(ilv, stats.Summarize(is).Mean)
		beh = append(beh, stats.Summarize(bs).Mean)
	}
	return
}

// Figure5 renders the coverage curves (paper Figures 5a and 5b) as ASCII
// charts plus a final-coverage table.
func (r *FTPResult) Figure5() string {
	var b strings.Builder
	var ilvSeries, behSeries []report.Series
	tb := report.NewTable("Figure 5 final coverage (mean over trials)",
		"Algorithm", "Interleavings", "Behaviors")
	for _, alg := range FTPAlgorithms {
		x, ilv, beh := r.covCurve(alg)
		ilvSeries = append(ilvSeries, report.Series{Name: alg, X: x, Y: ilv})
		behSeries = append(behSeries, report.Series{Name: alg, X: x, Y: beh})
		if len(ilv) > 0 {
			tb.AddRow(alg, fmt.Sprintf("%.0f", ilv[len(ilv)-1]), fmt.Sprintf("%.0f", beh[len(beh)-1]))
		}
	}
	b.WriteString(report.Curves("Figure 5a: distinct interleavings vs schedules", ilvSeries, 64, 16))
	b.WriteString("\n")
	b.WriteString(report.Curves("Figure 5b: distinct behaviors vs schedules", behSeries, 64, 16))
	b.WriteString("\n")
	b.WriteString(tb.String())
	return b.String()
}
