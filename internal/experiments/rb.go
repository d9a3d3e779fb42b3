package experiments

import (
	"fmt"
	"strings"

	"surw/internal/racebench"
	"surw/internal/report"
	"surw/internal/runner"
	"surw/internal/workpool"
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
	// cellSched/cellSecs accumulate, per algorithm, the schedules run and
	// wall-clock seconds spent across its cells, for Table 2's
	// schedules/s footer.
	cellSched map[string]int
	cellSecs  map[string]float64
}

// RaceBench runs every base program for the configured iteration budget
// under every Table 2 algorithm, counting distinct injected bugs (the
// RaceBench methodology: sampling continues after each crash).
// The (base × algorithm) grid fans over sc.Workers workers with
// index-ordered collection, so Table 2 is identical at any worker count.
func RaceBench(sc Scale, progress Progress) *RBResult {
	progress = syncProgress(progress)
	out := &RBResult{
		Scale:     sc,
		Distinct:  make(map[string]map[string]int),
		Partial:   make(map[string]bool),
		cellSched: make(map[string]int),
		cellSecs:  make(map[string]float64),
	}
	suite := racebench.Suite()
	type cell struct{ bi, ai int }
	cells := make([]cell, 0, len(suite)*len(RBAlgorithms))
	for bi, base := range suite {
		out.Bases = append(out.Bases, base.Name)
		out.Partial[base.Name] = base.Partial
		out.Distinct[base.Name] = make(map[string]int, len(RBAlgorithms))
		for ai := range RBAlgorithms {
			cells = append(cells, cell{bi, ai})
		}
	}
	type cellOut struct {
		distinct, sched int
		secs            float64
	}
	counts, err := workpool.Map(sc.Workers, len(cells), func(i int) (cellOut, error) {
		base, alg := suite[cells[i].bi], RBAlgorithms[cells[i].ai]
		res, err := runner.RunTarget(base.Target(), alg, runner.Config{
			Sessions: 1,
			Limit:    sc.RaceBenchLimit,
			Seed:     sc.Seed,
			Workers:  sc.Workers,
			Metrics:  sc.Metrics,
			Store:    sc.Store,
		})
		if err != nil {
			return cellOut{}, err
		}
		n := len(res.DistinctBugs())
		progress("[%2d/%d] %-16s %-6s %d distinct", cells[i].bi+1, len(suite), base.Name, alg, n)
		co := cellOut{distinct: n}
		if res.Executed > 0 { // a cell served from the store has no rate
			co.sched, co.secs = res.Executed, res.Elapsed.Seconds()
		}
		return co, nil
	})
	if err != nil {
		panic(err)
	}
	for i, c := range cells {
		alg := RBAlgorithms[c.ai]
		out.Distinct[suite[c.bi].Name][alg] = counts[i].distinct
		out.cellSched[alg] += counts[i].sched
		out.cellSecs[alg] += counts[i].secs
	}
	return out
}

// Table2 renders the distinct-bug counts (paper Table 2).
func (r *RBResult) Table2() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 2: distinct bugs exposed in RaceBench (100 injected per base; %d iterations)",
			r.Scale.RaceBenchLimit),
		append([]string{"Target"}, RBAlgorithms...)...)
	totals := make(map[string]int)
	for _, base := range r.Bases {
		name := base
		if r.Partial[base] {
			name += "*"
		}
		row := []string{name}
		bestAlg, bestN := "", -1
		for _, alg := range RBAlgorithms {
			n := r.Distinct[base][alg]
			totals[alg] += n
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

// ThroughputFooter mirrors SCTResult.ThroughputFooter for the RaceBench
// grid: mean schedules/s per cell for each algorithm column, plus the
// grid-wide wall-clock rate. Wall-clock, so surw bench prints it to stderr
// beside Table 2, keeping the table bit-identical at any worker count.
// Empty when the grid executed nothing.
func (r *RBResult) ThroughputFooter() string {
	parts := make([]string, 0, len(RBAlgorithms))
	totalSched, totalSec := 0, 0.0
	for _, alg := range RBAlgorithms {
		if r.cellSecs[alg] <= 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.0f", alg, float64(r.cellSched[alg])/r.cellSecs[alg]))
		totalSched += r.cellSched[alg]
		totalSec += r.cellSecs[alg]
	}
	if totalSec == 0 {
		return ""
	}
	return fmt.Sprintf("schedules/s per cell: %s; overall %.0f",
		strings.Join(parts, ", "), float64(totalSched)/totalSec)
}
