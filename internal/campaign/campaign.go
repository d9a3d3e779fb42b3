// Package campaign is the long-campaign persistence and aggregation layer:
// a crash-safe, append-only JSONL run-store that every experiments driver
// and runner.RunTarget batch can write per-session results into, plus the
// campaign-level aggregation the dashboard serves — per-(target, algorithm)
// schedules-to-first-bug survival curves, distinct-bug accumulation,
// interleaving-class growth, and schedule-space coverage estimates
// (Good–Turing unseen mass and Chao1 richness, internal/stats).
//
// The paper's evaluation unit is the campaign — 20 sessions × 10⁴ schedules
// per (target, algorithm) cell, hours of wall-clock at paper scale — and a
// killed batch run used to lose everything. With a Store attached
// (runner.Config.Store / experiments.Scale.Store), every completed session
// is persisted the moment it finishes and skipped on restart, and because
// sessions are the runner's deterministic unit (seed-derived from their own
// index, independent of Config.Workers), a resumed campaign's tables and
// aggregates are byte-identical to an uninterrupted run's at any worker
// count.
//
// The store is strictly outside the scheduler: it is consulted between
// sessions, never during one, so attaching it cannot perturb a schedule
// (campaign_test.go holds the invariant the way
// TestTracerDoesNotPerturbSchedule does for the tracer).
//
// Layout of a store directory:
//
//	DIR/manifest.json    {"version":1} — wire-format guard
//	DIR/runs.jsonl       one Record per line, append-only, fsynced
//	DIR/aggregates.json  written by `surw bench -campaign` on completion
//
// A torn trailing line (the signature of a crash mid-append) is truncated
// away on open; every complete line is a self-contained record.
package campaign

import "surw/internal/runner"

// Version is the wire-format version stamped into the manifest and every
// record line.
const Version = 1

// CellKey identifies one (target, algorithm) cell: a SessionKey minus the
// session index. Aggregation groups session records by it.
type CellKey struct {
	Target         string `json:"target"`
	Algorithm      string `json:"algorithm"`
	Limit          int    `json:"limit"`
	Seed           int64  `json:"seed"`
	StopAtFirstBug bool   `json:"stop_at_first_bug,omitempty"`
	Coverage       bool   `json:"coverage,omitempty"`
	CoverageEvery  int    `json:"coverage_every,omitempty"`
	ProfileRuns    int    `json:"profile_runs,omitempty"`
}

func cellOf(k runner.SessionKey) CellKey {
	return CellKey{
		Target:         k.Target,
		Algorithm:      k.Algorithm,
		Limit:          k.Limit,
		Seed:           k.Seed,
		StopAtFirstBug: k.StopAtFirstBug,
		Coverage:       k.Coverage,
		CoverageEvery:  k.CoverageEvery,
		ProfileRuns:    k.ProfileRuns,
	}
}

// less orders cells deterministically for aggregation output.
func (c CellKey) less(o CellKey) bool {
	if c.Target != o.Target {
		return c.Target < o.Target
	}
	if c.Algorithm != o.Algorithm {
		return c.Algorithm < o.Algorithm
	}
	if c.Limit != o.Limit {
		return c.Limit < o.Limit
	}
	if c.Seed != o.Seed {
		return c.Seed < o.Seed
	}
	if c.StopAtFirstBug != o.StopAtFirstBug {
		return o.StopAtFirstBug
	}
	if c.Coverage != o.Coverage {
		return o.Coverage
	}
	if c.CoverageEvery != o.CoverageEvery {
		return c.CoverageEvery < o.CoverageEvery
	}
	return c.ProfileRuns < o.ProfileRuns
}
