package experiments

import (
	"fmt"
	"sort"
	"strings"

	"surw/internal/report"
	"surw/internal/runner"
	"surw/internal/sctbench"
	"surw/internal/stats"
	"surw/internal/workpool"
)

// SCTAlgorithms is Table 4's column order.
var SCTAlgorithms = []string{"SURW", "PCT-3", "PCT-10", "POS", "RW", "N-U", "N-S"}

// SCTResult holds the raw data behind Tables 1 and 4.
type SCTResult struct {
	Scale   Scale
	Targets []string
	// Algs is the algorithm column order actually run (SCTAlgorithms
	// unless Scale.SCTAlgs narrowed it).
	Algs []string
	// Results[target][alg]
	Results map[string]map[string]*runner.Result
}

// Progress receives experiment progress lines; nil discards them.
type Progress func(format string, args ...any)

// sctGrid returns the (targets × algorithms) grid of the SCTBench
// experiment after Scale's narrowing flags, in the canonical run order.
// SCTBench, the distributed-campaign plan (SCTPlan), and the workers all
// enumerate cells through it, so one definition decides what a campaign
// contains.
func sctGrid(sc Scale) (targets []runner.Target, algs []string) {
	algs = SCTAlgorithms
	if len(sc.SCTAlgs) > 0 {
		algs = sc.SCTAlgs
	}
	targets = sctbench.Targets()
	if len(sc.SCTTargets) > 0 {
		// Coverage probes (Fig1/bitshift_k) and the surwsync worker-pool
		// family never appear in the default grid, but an explicit
		// SCTTargets list may opt into them.
		candidates := append(append([]runner.Target(nil), targets...),
			sctbench.CoverageTargets()...)
		candidates = append(candidates, sctbench.WorkerPoolTargets()...)
		keep := make(map[string]bool, len(sc.SCTTargets))
		for _, name := range sc.SCTTargets {
			keep[name] = true
		}
		filtered := candidates[:0:0]
		for _, tgt := range candidates {
			if keep[tgt.Name] {
				filtered = append(filtered, tgt)
			}
		}
		targets = filtered
	}
	return targets, algs
}

// sctConfig is the runner configuration of one grid cell (SafeStack gets
// its own larger budget, as in the paper). Everything that feeds the
// session key lives here; Workers/Metrics/Store are execution plumbing
// and do not affect keys.
func sctConfig(sc Scale, tgt runner.Target) runner.Config {
	limit := sc.Limit
	if tgt.Name == "SafeStack" {
		limit = sc.SafeStackLimit
	}
	return runner.Config{
		Sessions:       sc.Sessions,
		Limit:          limit,
		Seed:           sc.Seed,
		StopAtFirstBug: true,
		Coverage:       sc.SCTCoverage,
		Workers:        sc.Workers,
		Metrics:        sc.Metrics,
		Store:          sc.Store,
		Atlas:          sc.Atlas,
	}
}

// SCTPlan enumerates the session keys of every (target, algorithm,
// session) in the SCTBench grid — the shard units of a distributed
// campaign. Keys are built with runner.KeyFor, so they match the records a
// local SCTBench run writes to the store exactly, and a distributed run
// resumed over the same store skips whatever is already done.
func SCTPlan(sc Scale) []runner.SessionKey {
	targets, algs := sctGrid(sc)
	sessions := sc.Sessions
	if sessions <= 0 {
		sessions = 1
	}
	plan := make([]runner.SessionKey, 0, len(targets)*len(algs)*sessions)
	for _, tgt := range targets {
		cfg := sctConfig(sc, tgt)
		for _, alg := range algs {
			for s := 0; s < sessions; s++ {
				plan = append(plan, runner.KeyFor(tgt, alg, cfg, s))
			}
		}
	}
	return plan
}

// SCTBench runs every suite target under every Table 4 algorithm with the
// schedules-to-first-bug methodology. The (target × algorithm) grid fans
// over sc.Workers workers; every cell is seeded independently and
// collected by index, so the tables are bit-identical at any worker count.
func SCTBench(sc Scale, progress Progress) *SCTResult {
	progress = syncProgress(progress)
	targets, algs := sctGrid(sc)
	out := &SCTResult{Scale: sc, Algs: algs, Results: make(map[string]map[string]*runner.Result)}
	type cell struct{ ti, ai int }
	cells := make([]cell, 0, len(targets)*len(algs))
	for ti, tgt := range targets {
		out.Targets = append(out.Targets, tgt.Name)
		out.Results[tgt.Name] = make(map[string]*runner.Result, len(algs))
		for ai := range algs {
			cells = append(cells, cell{ti, ai})
		}
	}
	results, err := workpool.Map(sc.Workers, len(cells), func(i int) (*runner.Result, error) {
		tgt, alg := targets[cells[i].ti], algs[cells[i].ai]
		res, err := runner.RunTarget(tgt, alg, sctConfig(sc, tgt))
		if err != nil {
			return nil, err
		}
		sum, found := res.FirstBugSummary()
		progress("[%2d/%d] %-24s %-6s found %d/%d mean %.0f",
			cells[i].ti+1, len(targets), tgt.Name, alg, found, sc.Sessions, sum.Mean)
		return res, nil
	})
	if err != nil {
		panic(err)
	}
	for i, c := range cells {
		out.Results[targets[c.ti].Name][algs[c.ai]] = results[i]
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

// ThroughputFooter renders the scheduler-throughput line surw bench prints
// beside Tables 1 and 4: mean schedules/s per cell for each algorithm
// column (every cell is one runner batch whose Result carries its
// wall-clock Elapsed) and the grid-wide rate. It is wall-clock — cells
// fanned over a shared worker pool time-slice the CPUs — so it goes to
// stderr with the other timing output, never into the tables themselves,
// which stay bit-identical at any worker count. It rates the schedules a
// cell executed: a cell served from the campaign store ran nothing and is
// left out, and a grid of such cells (a resumed or fleet-drained campaign)
// has no footer.
func (r *SCTResult) ThroughputFooter() string {
	parts := make([]string, 0, len(r.Algs))
	totalSched, totalSec := 0, 0.0
	for _, alg := range r.Algs {
		sched, sec := 0, 0.0
		for _, tname := range r.Targets {
			res := r.Results[tname][alg]
			if res == nil || res.Elapsed <= 0 || res.Executed == 0 {
				continue
			}
			sched += res.Executed
			sec += res.Elapsed.Seconds()
		}
		totalSched += sched
		totalSec += sec
		if sec > 0 {
			parts = append(parts, fmt.Sprintf("%s %.0f", alg, float64(sched)/sec))
		}
	}
	if totalSec == 0 {
		return ""
	}
	return fmt.Sprintf("schedules/s per cell: %s; overall %.0f",
		strings.Join(parts, ", "), float64(totalSched)/totalSec)
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
