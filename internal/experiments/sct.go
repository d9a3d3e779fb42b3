package experiments

import (
	"fmt"
	"slices"
	"sort"

	"surw/internal/core"
	"surw/internal/report"
	"surw/internal/runner"
	"surw/internal/sctbench"
	"surw/internal/stats"
)

// SCTResult holds the raw data behind Tables 1 and 4.
type SCTResult struct {
	Scale   Scale
	Targets []string
	// Algs is the algorithm column order actually run (Table 4's,
	// core.AllNames, unless Scale.SCTAlgs narrowed it).
	Algs []string
	// Results[target][alg]
	Results map[string]map[string]*runner.Result
	gridRun
}

// sctGrid is the (targets × algorithms) grid of the SCTBench experiment
// after Scale's narrowing flags, with the schedules-to-first-bug methodology
// (SafeStack gets its own larger budget, as in the paper). SCTBench, the
// distributed-campaign plan and the workers all enumerate cells through it,
// so one definition decides what a campaign contains.
func sctGrid(sc Scale) grid {
	targets, algs := sctbench.Targets(), core.AllNames()
	if len(sc.SCTAlgs) > 0 {
		algs = sc.SCTAlgs
	}
	if len(sc.SCTTargets) > 0 {
		// Coverage probes (Fig1/bitshift_k) and the surwsync worker-pool
		// family never appear in the default grid, but an explicit
		// SCTTargets list may opt into them.
		candidates := append(append(targets, sctbench.CoverageTargets()...), sctbench.WorkerPoolTargets()...)
		targets = nil
		for _, tgt := range candidates {
			if slices.Contains(sc.SCTTargets, tgt.Name) {
				targets = append(targets, tgt)
			}
		}
	}
	g := grid{algs: algs, line: func(i int, res *runner.Result) string {
		sum, found := res.FirstBugSummary()
		return fmt.Sprintf("[%2d/%d] %-24s %-6s found %d/%d mean %.0f",
			i/len(algs)+1, len(targets), res.Target, res.Algorithm, found, sc.Sessions, sum.Mean)
	}}
	for _, tgt := range targets {
		limit := sc.Limit
		if tgt.Name == "SafeStack" {
			limit = sc.SafeStackLimit
		}
		for _, alg := range algs {
			g.cells = append(g.cells, runner.Cell{Target: tgt, Alg: alg, Config: runner.Config{
				Sessions:       sc.Sessions,
				Limit:          limit,
				Seed:           sc.Seed,
				StopAtFirstBug: true,
				Coverage:       sc.SCTCoverage,
				Atlas:          sc.Atlas,
			}})
		}
	}
	return g
}

// SCTPlan enumerates the session keys of every (target, algorithm,
// session) in the SCTBench grid: Plan(sc, "sct").
func SCTPlan(sc Scale) []runner.SessionKey { return Plan(sc, "sct") }

// SCTBench runs every suite target under every Table 4 algorithm.
func SCTBench(sc Scale, progress Progress) *SCTResult {
	g := sctGrid(sc)
	out := &SCTResult{Scale: sc, Algs: g.algs, gridRun: run(sc, g, progress),
		Results: make(map[string]map[string]*runner.Result)}
	for _, res := range out.results {
		if out.Results[res.Target] == nil {
			out.Targets = append(out.Targets, res.Target)
			out.Results[res.Target] = make(map[string]*runner.Result, len(out.Algs))
		}
		out.Results[res.Target][res.Algorithm] = res
	}
	return out
}

// Table1 renders the bug-count summary (paper Table 1): per algorithm, the
// number of targets whose bug was exposed in any session, the per-session
// mean, and the Mann-Whitney p-value of SURW's per-session counts against
// each baseline.
func (r *SCTResult) Table1() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 1: bugs found on SCTBench+ConVul (max %d; %d sessions x %d schedules)",
			len(r.Targets), r.Scale.Sessions, r.Scale.Limit),
		append([]string{"Metric"}, r.Algs...)...)
	perSession := r.perSessionCounts()

	total := []string{"Total"}
	mean := []string{"Mean"}
	pvals := []string{"p vs SURW"}
	for _, alg := range r.Algs {
		found := 0
		for _, tname := range r.Targets {
			if r.Results[tname][alg].FoundEver() {
				found++
			}
		}
		total = append(total, fmt.Sprintf("%d", found))
		mean = append(mean, fmt.Sprintf("%.2f", stats.Summarize(perSession[alg]).Mean))
		if alg == "SURW" || len(perSession["SURW"]) == 0 {
			pvals = append(pvals, "-")
		} else {
			_, p := stats.MannWhitneyU(perSession["SURW"], perSession[alg])
			pvals = append(pvals, fmt.Sprintf("%.2g", p))
		}
	}
	tb.AddRow(total...)
	tb.AddRow(mean...)
	tb.AddRow(pvals...)
	if missed := r.bugsMissedBySURW(); len(missed) == 0 {
		tb.AddFooter("no target's bug was found by a baseline but missed by SURW")
	} else {
		tb.AddFooter(fmt.Sprintf("targets missed by SURW but found by a baseline: %v", missed))
	}
	if r.Scale.Metrics != nil {
		tb.AddFooter(r.Scale.Metrics.Summary())
	}
	return tb
}

// perSessionCounts returns, per algorithm, the number of targets whose bug
// each session exposed.
func (r *SCTResult) perSessionCounts() map[string][]float64 {
	out := make(map[string][]float64)
	for _, alg := range r.Algs {
		counts := make([]float64, r.Scale.Sessions)
		for _, tname := range r.Targets {
			for s, sess := range r.Results[tname][alg].Sessions {
				if sess.FirstBug >= 0 && s < len(counts) {
					counts[s]++
				}
			}
		}
		out[alg] = counts
	}
	return out
}

func (r *SCTResult) bugsMissedBySURW() []string {
	var missed []string
	for _, tname := range r.Targets {
		if surw, ok := r.Results[tname]["SURW"]; !ok || surw.FoundEver() {
			continue
		}
		for _, alg := range r.Algs {
			if alg != "SURW" && r.Results[tname][alg].FoundEver() {
				missed = append(missed, tname)
				break
			}
		}
	}
	sort.Strings(missed)
	return missed
}

// Table4 renders the full schedules-to-first-bug breakdown (paper Table 4,
// Appendix A). The best algorithm per row is bracketed when the log-rank
// test separates it from every rival at p < 0.05.
func (r *SCTResult) Table4() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 4: schedules to first bug, mean ± std over %d sessions (limit %d)",
			r.Scale.Sessions, r.Scale.Limit),
		append([]string{"Target"}, r.Algs...)...)
	for _, tname := range r.Targets {
		row := []string{tname}
		best := r.bestAlgorithm(tname)
		for _, alg := range r.Algs {
			res := r.Results[tname][alg]
			sum, found := res.FirstBugSummary()
			cell := report.MeanStd(sum.Mean, sum.Std, found, r.Scale.Sessions)
			if alg == best {
				cell = "[" + cell + "]"
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}
	tb.AddFooter("- never triggered; * not triggered in at least one session;")
	tb.AddFooter("[x] best by log-rank test (p < 0.05 against every rival)")
	tb.AddFooter("profiled algorithms (SURW, PCT, N-U, N-S) include the +1 profiling run")
	return tb
}

// bestAlgorithm returns the algorithm that is log-rank-significantly
// fastest on the target, or "" when no algorithm separates from the rest.
func (r *SCTResult) bestAlgorithm(tname string) string {
	type cand struct {
		alg  string
		mean float64
	}
	var cands []cand
	for _, alg := range r.Algs {
		res := r.Results[tname][alg]
		sum, found := res.FirstBugSummary()
		if found == 0 {
			continue
		}
		mean := sum.Mean
		// Sessions that never found the bug push the effective time up.
		if found < len(res.Sessions) {
			mean = float64(res.Limit)
		}
		cands = append(cands, cand{alg, mean})
	}
	if len(cands) < 2 {
		return ""
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mean < cands[j].mean })
	best := cands[0].alg
	for _, c := range cands[1:] {
		_, p := stats.LogRank(r.Results[tname][best].FirstBugObs(), r.Results[tname][c.alg].FirstBugObs())
		if p >= 0.05 {
			return ""
		}
	}
	return best
}
