// Package experiments regenerates every table and figure of the paper's
// evaluation: Figure 2 (uniformity histograms), Tables 1 and 4 (SCTBench +
// ConVul bug finding), Table 2 (RaceBench distinct bugs), and Table 3 with
// Figure 5 (the LightFTP case study). `surw bench` drives it from the
// command line and the repository's benchmarks drive it from testing.B.
package experiments

import (
	"surw/internal/atlas"
	"surw/internal/obs"
	"surw/internal/runner"
)

// Scale sets the experiment budgets: the paper's (PaperScale: 20 sessions
// of 10^4 schedules, 10^6 for SafeStack, 5x10^4 RaceBench iterations, 20
// FTP trials of 10^4) or DefaultScale's, which reproduces the result
// shapes in 35 s at two workers.
type Scale struct {
	// Seed derives all randomness.
	Seed int64

	// Sessions and Limit drive Tables 1 and 4.
	Sessions int
	Limit    int
	// SafeStackLimit is the separate budget for the SafeStack row.
	SafeStackLimit int

	// RaceBenchLimit is the per-base iteration budget for Table 2.
	RaceBenchLimit int

	// FTPTrials and FTPLimit drive Table 3 and Figure 5.
	FTPTrials int
	FTPLimit  int

	// Fig2Trials is Figure 2's schedules per algorithm, in Fig2Sessions sessions.
	Fig2Trials int

	// Workers is how many sessions are in flight at once: an experiment is
	// its session plan — every (cell, session) of its grid in table order —
	// drained by this many workers on one cache of warm per-target state.
	// 1 runs the
	// plan one session after another; <= 0 means one worker per CPU
	// (runtime.GOMAXPROCS(0)). Every table and figure is bit-identical
	// under any setting — cells and sessions derive their seeds from their
	// own indices and results are collected by index.
	Workers int

	// Metrics, when non-nil, aggregates observability counters (schedule
	// throughput, per-algorithm decision histograms, worker utilization)
	// across every session the grids run. Purely observational:
	// attaching it never changes any table or figure. See internal/obs.
	Metrics *obs.Metrics

	// Atlas, when non-nil, accumulates schedule-space cartography across
	// every SCTBench grid cell (see internal/atlas). Execution plumbing
	// like Metrics — it never changes a session key, a table, or a figure.
	Atlas *atlas.Atlas

	// Store, when non-nil, makes every experiment crash-safe and
	// resumable: completed sessions are persisted as they finish and
	// skipped on restart, and the tables a resumed run renders are
	// byte-identical to an uninterrupted run's at any Workers setting.
	// internal/campaign provides the JSONL-backed implementation.
	Store runner.SessionStore

	// SCTTargets, when non-empty, restricts the SCTBench driver to the
	// named targets; SCTAlgs likewise overrides its algorithm columns.
	// Both exist so a tiny campaign (two cells) can exercise the full
	// store/resume/dashboard path in CI; the full grids remain the default.
	SCTTargets []string
	SCTAlgs    []string

	// SCTCoverage turns on per-session coverage tallies (interleaving and
	// commutation-class fingerprints, runner.Config.Coverage) for every
	// SCTBench grid cell. The class fingerprints feed the dedup-aware
	// aggregates (internal/campaign) and a coordinator's duplicate-rate
	// gauges. It changes session keys — a coverage
	// campaign is a different campaign — so flipping it never collides
	// with records from a plain run sharing the store.
	SCTCoverage bool
}

// DefaultScale is the laptop-scale configuration.
func DefaultScale() Scale {
	return Scale{
		Seed:           1,
		Sessions:       4,
		Limit:          2000,
		SafeStackLimit: 20_000,
		RaceBenchLimit: 2000,
		FTPTrials:      5,
		FTPLimit:       1500,
		Fig2Trials:     25_200,
	}
}

// PaperScale matches the paper's budgets: an estimated half hour at two
// workers on a 2-vCPU box, of which Table 2 takes 5 minutes.
func PaperScale() Scale {
	return Scale{
		Seed:           1,
		Sessions:       20,
		Limit:          10_000,
		SafeStackLimit: 1_000_000,
		RaceBenchLimit: 50_000,
		FTPTrials:      20,
		FTPLimit:       10_000,
		Fig2Trials:     25_200,
	}
}
