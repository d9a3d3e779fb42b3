package experiments

import (
	"fmt"

	"surw/internal/racebench"
	"surw/internal/report"
	"surw/internal/runner"
)

// RBAlgorithms is Table 2's column order.
var RBAlgorithms = []string{"SURW", "PCT-3", "PCT-10", "POS", "RW"}

// RBResult holds the raw data behind Table 2.
type RBResult struct {
	Scale Scale
	Bases []string
	// Distinct[base][alg] = number of distinct injected bugs exposed.
	Distinct map[string]map[string]int
	Partial  map[string]bool
	gridRun
}

// rbGrid is the (base × algorithm) grid of Table 2: every base program for
// the configured iteration budget under every Table 2 algorithm, one
// session a cell that keeps sampling after each crash (the RaceBench
// methodology: distinct injected bugs are counted).
func rbGrid(sc Scale) grid {
	suite := racebench.Suite()
	g := grid{algs: RBAlgorithms, line: func(i int, res *runner.Result) string {
		base := suite[i/len(RBAlgorithms)]
		return fmt.Sprintf("[%2d/%d] %-16s %-6s %d distinct",
			i/len(RBAlgorithms)+1, len(suite), base.Name, res.Algorithm, len(res.DistinctBugs()))
	}}
	for _, base := range suite {
		for _, alg := range RBAlgorithms {
			g.cells = append(g.cells, runner.Cell{Target: base.Target(), Alg: alg,
				Config: runner.Config{Sessions: 1, Limit: sc.RaceBenchLimit, Seed: sc.Seed}})
		}
	}
	return g
}

// RaceBench runs Table 2's grid.
func RaceBench(sc Scale, progress Progress) *RBResult {
	out := &RBResult{
		Scale:    sc,
		Distinct: make(map[string]map[string]int),
		Partial:  make(map[string]bool),
		gridRun:  run(sc, rbGrid(sc), progress),
	}
	for i, base := range racebench.Suite() {
		out.Bases = append(out.Bases, base.Name)
		out.Partial[base.Name] = base.Partial
		out.Distinct[base.Name] = make(map[string]int, len(RBAlgorithms))
		for ai, alg := range RBAlgorithms {
			out.Distinct[base.Name][alg] = len(out.results[i*len(RBAlgorithms)+ai].DistinctBugs())
		}
	}
	return out
}

// Table2 renders the distinct-bug counts (paper Table 2).
func (r *RBResult) Table2() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 2: distinct bugs exposed in RaceBench (100 injected per base; %d iterations)",
			r.Scale.RaceBenchLimit),
		append([]string{"Target"}, RBAlgorithms...)...)
	for _, base := range r.Bases {
		name := base
		if r.Partial[base] {
			name += "*"
		}
		row := []string{name}
		bestAlg, bestN := "", -1
		for _, alg := range RBAlgorithms {
			n := r.Distinct[base][alg]
			if n > bestN {
				bestAlg, bestN = alg, n
			}
		}
		for _, alg := range RBAlgorithms {
			cell := fmt.Sprintf("%d", r.Distinct[base][alg])
			if alg == bestAlg {
				cell = "[" + cell + "]"
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}
	totalRow := []string{fmt.Sprintf("Total (max %d)", len(r.Bases)*racebench.NumBugs)}
	totals := r.Totals()
	for _, alg := range RBAlgorithms {
		totalRow = append(totalRow, fmt.Sprintf("%d", totals[alg]))
	}
	tb.AddRow(totalRow...)
	tb.AddFooter("* selectively instrumented base; [x] most bugs on the row")
	if r.Scale.Metrics != nil {
		tb.AddFooter(r.Scale.Metrics.Summary())
	}
	return tb
}

// Totals returns per-algorithm distinct-bug totals.
func (r *RBResult) Totals() map[string]int {
	totals := make(map[string]int)
	for _, base := range r.Bases {
		for _, alg := range RBAlgorithms {
			totals[alg] += r.Distinct[base][alg]
		}
	}
	return totals
}
