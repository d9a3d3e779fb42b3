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
//	DIR/runs.jsonl       one record per line, append-only, fsynced
//	DIR/aggregates.json  written by `surw bench -campaign` on completion
//
// A torn trailing line (the signature of a crash mid-append) is truncated
// away on open; every complete line is a self-contained record.
package campaign

// Version is the wire-format version stamped into the manifest and every
// record line.
const Version = 1
