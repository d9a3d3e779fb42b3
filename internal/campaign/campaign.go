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

import (
	"fmt"
	"sort"
	"strconv"

	"surw/internal/runner"
)

// Version is the wire-format version stamped into the manifest and every
// record line.
const Version = 1

// Record is one JSONL line of the run-store: a session key and the
// session's observable outcome. It doubles as the result payload of the
// distributed-campaign protocol (internal/remote): a worker submits the
// exact bytes the coordinator's store would append, so a distributed
// campaign and a local one share one wire format.
type Record struct {
	V       int         `json:"v"`
	Key     keyWire     `json:"key"`
	Session sessionWire `json:"session"`
}

// NewRecord builds the versioned wire record for one session result — the
// line the store appends, and the payload a remote worker submits.
func NewRecord(k runner.SessionKey, s *runner.Session) Record {
	return Record{V: Version, Key: encodeKey(k), Session: encodeSession(s)}
}

// Decode returns the session key and the canonical (wire round-trip)
// session of a record, rejecting unknown wire versions.
func (r Record) Decode() (runner.SessionKey, *runner.Session, error) {
	if r.V != Version {
		return runner.SessionKey{}, nil, fmt.Errorf("campaign: record has wire version %d, want %d", r.V, Version)
	}
	s, err := r.Session.decode()
	if err != nil {
		return runner.SessionKey{}, nil, err
	}
	return r.Key.decode(), s, nil
}

// keyWire is the wire form of runner.SessionKey.
type keyWire struct {
	Target         string `json:"target"`
	Algorithm      string `json:"algorithm"`
	Limit          int    `json:"limit"`
	Seed           int64  `json:"seed"`
	Session        int    `json:"session"`
	StopAtFirstBug bool   `json:"stop_at_first_bug,omitempty"`
	Coverage       bool   `json:"coverage,omitempty"`
	CoverageEvery  int    `json:"coverage_every,omitempty"`
	ProfileRuns    int    `json:"profile_runs,omitempty"`
}

func encodeKey(k runner.SessionKey) keyWire {
	return keyWire{
		Target:         k.Target,
		Algorithm:      k.Algorithm,
		Limit:          k.Limit,
		Seed:           k.Seed,
		Session:        k.Session,
		StopAtFirstBug: k.StopAtFirstBug,
		Coverage:       k.Coverage,
		CoverageEvery:  k.CoverageEvery,
		ProfileRuns:    k.ProfileRuns,
	}
}

func (w keyWire) decode() runner.SessionKey {
	return runner.SessionKey{
		Target:         w.Target,
		Algorithm:      w.Algorithm,
		Limit:          w.Limit,
		Seed:           w.Seed,
		Session:        w.Session,
		StopAtFirstBug: w.StopAtFirstBug,
		Coverage:       w.Coverage,
		CoverageEvery:  w.CoverageEvery,
		ProfileRuns:    w.ProfileRuns,
	}
}

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

// sessionWire is the wire form of runner.Session. The Flight path is
// deliberately not persisted: it names a local diagnostic artifact, is
// excluded from runner.Result.Equal, and resumed sessions do not re-dump
// flights.
type sessionWire struct {
	FirstBug  int            `json:"first_bug"`
	Schedules int            `json:"schedules"`
	Truncated int            `json:"truncated,omitempty"`
	Bugs      map[string]int `json:"bugs,omitempty"`
	Cov       *covWire       `json:"cov,omitempty"`
}

type covWire struct {
	// Interleavings maps the %016x hex interleaving fingerprint to its
	// observed frequency. Hex string keys keep the JSONL greppable and the
	// encoding deterministic (encoding/json sorts map keys).
	Interleavings map[string]int `json:"interleavings"`
	// Classes maps the %016x hex commutation-class fingerprint
	// (sched.Result.ClassHash) to its observed frequency — the deduplicated
	// counterpart of Interleavings. DupSchedules counts schedules whose
	// class had already been seen within the session. Both are omitted by
	// records that predate the class fingerprint, so old stores still load.
	Classes      map[string]int `json:"classes,omitempty"`
	DupSchedules int            `json:"dup_schedules,omitempty"`
	Behaviors    map[string]int `json:"behaviors,omitempty"`
	Series       []covPointWire `json:"series,omitempty"`
}

type covPointWire struct {
	Schedules     int `json:"schedules"`
	Interleavings int `json:"interleavings"`
	Behaviors     int `json:"behaviors"`
	Classes       int `json:"classes,omitempty"`
}

func encodeSession(s *runner.Session) sessionWire {
	w := sessionWire{
		FirstBug:  s.FirstBug,
		Schedules: s.Schedules,
		Truncated: s.Truncated,
	}
	if len(s.Bugs) > 0 {
		w.Bugs = make(map[string]int, len(s.Bugs))
		for id, n := range s.Bugs {
			w.Bugs[id] = n
		}
	}
	if s.Cov != nil {
		cw := &covWire{Interleavings: make(map[string]int, len(s.Cov.Interleavings))}
		for h, n := range s.Cov.Interleavings {
			cw.Interleavings[fingerprint(h)] = n
		}
		if len(s.Cov.Classes) > 0 {
			cw.Classes = make(map[string]int, len(s.Cov.Classes))
			for h, n := range s.Cov.Classes {
				cw.Classes[fingerprint(h)] = n
			}
		}
		cw.DupSchedules = s.Cov.DupSchedules
		if len(s.Cov.Behaviors) > 0 {
			cw.Behaviors = make(map[string]int, len(s.Cov.Behaviors))
			for b, n := range s.Cov.Behaviors {
				cw.Behaviors[b] = n
			}
		}
		for _, p := range s.Cov.Series {
			cw.Series = append(cw.Series, covPointWire{
				Schedules:     p.Schedules,
				Interleavings: p.Interleavings,
				Behaviors:     p.Behaviors,
				Classes:       p.Classes,
			})
		}
		w.Cov = cw
	}
	return w
}

func (w *sessionWire) decode() (*runner.Session, error) {
	s := &runner.Session{
		FirstBug:  w.FirstBug,
		Schedules: w.Schedules,
		Truncated: w.Truncated,
		Bugs:      make(map[string]int, len(w.Bugs)),
	}
	for id, n := range w.Bugs {
		s.Bugs[id] = n
	}
	if w.Cov != nil {
		cov := &runner.Coverage{
			Interleavings: make(map[uint64]int, len(w.Cov.Interleavings)),
			Classes:       make(map[uint64]int, len(w.Cov.Classes)),
			Behaviors:     make(map[string]int, len(w.Cov.Behaviors)),
			DupSchedules:  w.Cov.DupSchedules,
		}
		for hex, n := range w.Cov.Interleavings {
			h, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("campaign: bad interleaving fingerprint %q: %w", hex, err)
			}
			cov.Interleavings[h] = n
		}
		for hex, n := range w.Cov.Classes {
			h, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("campaign: bad class fingerprint %q: %w", hex, err)
			}
			cov.Classes[h] = n
		}
		for b, n := range w.Cov.Behaviors {
			cov.Behaviors[b] = n
		}
		for _, p := range w.Cov.Series {
			cov.Series = append(cov.Series, runner.CovPoint{
				Schedules:     p.Schedules,
				Interleavings: p.Interleavings,
				Behaviors:     p.Behaviors,
				Classes:       p.Classes,
			})
		}
		s.Cov = cov
	}
	return s, nil
}

// fingerprint renders an interleaving hash the way the flight recorder
// does, so store lines and flight dumps cross-reference.
func fingerprint(h uint64) string { return fmt.Sprintf("%016x", h) }

// sortedKeys returns the session keys of records grouped by cell and
// ordered (cell, session) — the canonical aggregation order.
func sortedKeys(recs map[runner.SessionKey]sessionWire) []runner.SessionKey {
	keys := make([]runner.SessionKey, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := cellOf(keys[i]), cellOf(keys[j])
		if ci != cj {
			return ci.less(cj)
		}
		return keys[i].Session < keys[j].Session
	})
	return keys
}
