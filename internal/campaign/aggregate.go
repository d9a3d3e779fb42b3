package campaign

// Campaign-level aggregation: everything the dashboard and aggregates.json
// derive from the run-store. The computation reads only the indexed wire
// records in canonical (cell, session) order, so its output is a pure
// function of the record set — byte-identical whether the campaign ran
// uninterrupted or was killed and resumed, at any worker count.

import (
	"cmp"
	"io"
	"slices"
	"sort"

	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/stats"
)

// Aggregates is the campaign-wide rollup served at /api/campaign and
// written to aggregates.json.
type Aggregates struct {
	Version  int              `json:"version"`
	Sessions int              `json:"sessions"` // session records aggregated
	Cells    []CellAggregate  `json:"cells"`
	Metrics  *MetricsSnapshot `json:"metrics,omitempty"` // live only, see Serve
	Remote   *RemoteStatus    `json:"remote,omitempty"`  // live only: distributed campaigns
	// RemoteErr carries the error of a failed remote-status fetch (e.g.
	// surw dash -remote pointed at a wrong or dead coordinator), so the
	// dashboard can say why the fleet view is missing instead of silently
	// rendering an empty one. Live only, like Remote: WriteAggregates
	// builds from the store alone, so it never reaches aggregates.json.
	RemoteErr string `json:"remote_error,omitempty"`
}

// MetricsSnapshot is the JSON form of the obs.Metrics aggregate attached to
// a live campaign (never part of aggregates.json: throughput is a property
// of one run, not of the stored results).
type MetricsSnapshot struct {
	Schedules       int64   `json:"schedules"`
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	StepsPerSched   float64 `json:"steps_per_schedule"`
	TruncationRate  float64 `json:"truncation_rate"`
	Utilization     float64 `json:"worker_utilization"`
}

// CellAggregate is the rollup of one (target, algorithm) cell.
type CellAggregate struct {
	CellKey
	// SessionsStored counts the session records present (a partially
	// completed cell shows fewer than the campaign's session budget).
	SessionsStored int `json:"sessions_stored"`
	// Found counts sessions whose bug was exposed.
	Found int `json:"found"`
	// FirstBug summarizes schedules-to-first-bug over the finding sessions.
	FirstBug *SummaryJSON `json:"first_bug,omitempty"`
	// Survival is the schedules-to-first-bug survival curve (the paper's
	// Figure 5 shape, here for every cell): the fraction of sessions still
	// bug-free after x schedules, stepping down at each distinct first-bug
	// time. Sessions that never found the bug censor at the limit.
	Survival []SurvivalPoint `json:"survival,omitempty"`
	// DistinctBugs is the sorted union of bug IDs across sessions.
	DistinctBugs []string `json:"distinct_bugs,omitempty"`
	// BugAccumulation tracks distinct-bug growth over sessions in session
	// order: one point per session that grew the set.
	BugAccumulation []AccumPoint `json:"bug_accumulation,omitempty"`
	// Coverage holds the interleaving-class tallies and schedule-space
	// coverage estimates (present only for coverage-recording cells).
	Coverage *CoverageAggregate `json:"coverage,omitempty"`
}

// SummaryJSON is the wire form of stats.Summary.
type SummaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// SurvivalPoint is one step of a survival curve.
type SurvivalPoint struct {
	Schedules int     `json:"schedules"`
	Surviving float64 `json:"surviving"` // fraction of sessions still bug-free
}

// AccumPoint is one step of an accumulation curve over sessions.
type AccumPoint struct {
	Session  int `json:"session"` // 1-based count of sessions folded in
	Distinct int `json:"distinct"`
}

// CoverageAggregate pools the interleaving-fingerprint frequency counts of
// a cell's sessions and estimates how much of the schedule space the cell
// has explored.
type CoverageAggregate struct {
	// Samples is the number of coverage-recorded schedules pooled.
	Samples int `json:"samples"`
	// DistinctInterleavings / DistinctBehaviors are the observed class
	// counts (the union across sessions).
	DistinctInterleavings int `json:"distinct_interleavings"`
	DistinctBehaviors     int `json:"distinct_behaviors,omitempty"`
	// GoodTuringUnseen is the estimated probability the next schedule
	// witnesses a never-seen interleaving class (f1/n); GoodTuringCoverage
	// is its complement, the sample coverage.
	GoodTuringUnseen   float64 `json:"good_turing_unseen"`
	GoodTuringCoverage float64 `json:"good_turing_coverage"`
	// Chao1 is the estimated total number of reachable interleaving
	// classes; ClassCoverage = observed/Chao1 is the dashboard's "covered
	// an estimated N% of reachable classes".
	Chao1         float64 `json:"chao1"`
	ClassCoverage float64 `json:"class_coverage"`
	// Growth is the interleaving-class union size after each session, in
	// session order: the campaign-level class-growth curve.
	Growth []AccumPoint `json:"growth,omitempty"`
	// Dedup is the commutation-class-deduplicated view of the same cell
	// (absent when the records predate class fingerprints).
	Dedup *DedupAggregate `json:"dedup,omitempty"`
}

// DedupAggregate mirrors the coverage estimates over commutation classes
// (sched.Result.ClassHash) instead of order-sensitive interleavings: two
// schedules that differ only by commuting independent events count once.
// Like everything in aggregates.json it is a pure function of the record
// set — the live seen-class filter plays no part in it.
type DedupAggregate struct {
	// Samples is the number of schedules pooled into the class tallies.
	Samples int `json:"samples"`
	// DistinctClasses is the union of class fingerprints across sessions.
	DistinctClasses int `json:"distinct_classes"`
	// DupSchedules sums the sessions' within-session duplicate counts;
	// DuplicateRate is the pooled fleet view: the fraction of sampled
	// schedules whose class had already been seen by any session of the
	// cell, 1 - distinct/samples.
	DupSchedules  int     `json:"dup_schedules"`
	DuplicateRate float64 `json:"duplicate_rate"`
	// Good–Turing and Chao1 over the class frequency counts: the estimated
	// probability the next schedule lands in a never-seen class, the
	// estimated number of reachable classes, and the fraction covered.
	GoodTuringUnseen   float64 `json:"good_turing_unseen"`
	GoodTuringCoverage float64 `json:"good_turing_coverage"`
	Chao1              float64 `json:"chao1"`
	ClassCoverage      float64 `json:"class_coverage"`
	// Growth is the distinct-class union size after each session.
	Growth []AccumPoint `json:"growth,omitempty"`
}

// numbered is one record of a cell: its session number and its session.
type numbered struct {
	session int
	sess    *runner.Session
}

// Aggregate computes the campaign rollup from the store's current index: its
// cells in CellKey.less order, each cell's records in session order.
func (s *Store) Aggregate() *Aggregates {
	// A snapshot of pointers under the mutex: an indexed session never
	// changes, so it is read where it lies.
	type cellRecords struct {
		cell CellKey
		recs []numbered
	}
	s.mu.Lock()
	cells := make([]cellRecords, 0, len(s.index))
	all := make([]numbered, 0, s.n)
	for cell, sessions := range s.index {
		start := len(all)
		for n, sess := range sessions {
			all = append(all, numbered{n, sess})
		}
		cells = append(cells, cellRecords{cell, all[start:len(all):len(all)]})
	}
	s.mu.Unlock()

	slices.SortFunc(cells, func(a, b cellRecords) int {
		if a.cell.less(b.cell) {
			return -1
		}
		return 1 // cells are distinct
	})
	agg := &Aggregates{Version: Version, Sessions: len(all)}
	for _, c := range cells {
		slices.SortFunc(c.recs, func(a, b numbered) int { return cmp.Compare(a.session, b.session) })
		agg.Cells = append(agg.Cells, aggregateCell(c.cell, c.recs))
	}
	return agg
}

// aggregateCell rolls up one cell's session records, in session order.
func aggregateCell(cell CellKey, recs []numbered) CellAggregate {
	ca := CellAggregate{CellKey: cell, SessionsStored: len(recs)}

	var firstBugs []float64
	bugSet := make(map[string]bool)
	pooled := make(map[uint64]int)
	pooledClasses := make(map[uint64]int)
	behaviors := make(map[string]bool)
	covSamples, covSessions := 0, 0
	classSamples, classSessions, dupSum := 0, 0, 0
	for _, r := range recs {
		w := r.sess
		if w.FirstBug >= 0 {
			ca.Found++
			firstBugs = append(firstBugs, float64(w.FirstBug))
		}
		for id := range w.Bugs {
			bugSet[id] = true
		}
		if len(bugSet) > lastDistinct(ca.BugAccumulation) {
			ca.BugAccumulation = append(ca.BugAccumulation, AccumPoint{Session: r.session + 1, Distinct: len(bugSet)})
		}
		if w.Cov != nil {
			covSessions++
			for fp, n := range w.Cov.Interleavings {
				pooled[fp] += n
				covSamples += n
			}
			for b := range w.Cov.Behaviors {
				behaviors[b] = true
			}
			cov := ensureCoverage(&ca)
			cov.Growth = append(cov.Growth, AccumPoint{Session: r.session + 1, Distinct: len(pooled)})
			if len(w.Cov.Classes) > 0 {
				classSessions++
				dupSum += w.Cov.DupSchedules
				for fp, n := range w.Cov.Classes {
					pooledClasses[fp] += n
					classSamples += n
				}
				dd := ensureDedup(cov)
				dd.Growth = append(dd.Growth, AccumPoint{Session: r.session + 1, Distinct: len(pooledClasses)})
			}
		}
	}
	if len(firstBugs) > 0 {
		sum := stats.Summarize(firstBugs)
		ca.FirstBug = &SummaryJSON{N: sum.N, Mean: sum.Mean, Std: sum.Std, Min: sum.Min, Max: sum.Max}
	}
	ca.Survival = survivalCurve(recs, cell.Limit)
	for id := range bugSet {
		ca.DistinctBugs = append(ca.DistinctBugs, id)
	}
	sort.Strings(ca.DistinctBugs)
	if covSessions > 0 {
		cov := ensureCoverage(&ca)
		cov.Samples = covSamples
		cov.DistinctInterleavings = len(pooled)
		cov.DistinctBehaviors = len(behaviors)
		counts := stats.CountsOfMap(pooled)
		cov.GoodTuringUnseen = stats.GoodTuringUnseen(counts)
		cov.GoodTuringCoverage = stats.GoodTuringCoverage(counts)
		cov.Chao1 = stats.Chao1(counts)
		cov.ClassCoverage = stats.Chao1Coverage(counts)
	}
	if classSessions > 0 {
		dd := ensureDedup(ca.Coverage)
		dd.Samples = classSamples
		dd.DistinctClasses = len(pooledClasses)
		dd.DupSchedules = dupSum
		if classSamples > 0 {
			dd.DuplicateRate = float64(classSamples-len(pooledClasses)) / float64(classSamples)
		}
		counts := stats.CountsOfMap(pooledClasses)
		dd.GoodTuringUnseen = stats.GoodTuringUnseen(counts)
		dd.GoodTuringCoverage = stats.GoodTuringCoverage(counts)
		dd.Chao1 = stats.Chao1(counts)
		dd.ClassCoverage = stats.Chao1Coverage(counts)
	}
	return ca
}

func ensureDedup(cov *CoverageAggregate) *DedupAggregate {
	if cov.Dedup == nil {
		cov.Dedup = &DedupAggregate{}
	}
	return cov.Dedup
}

func ensureCoverage(ca *CellAggregate) *CoverageAggregate {
	if ca.Coverage == nil {
		ca.Coverage = &CoverageAggregate{}
	}
	return ca.Coverage
}

func lastDistinct(pts []AccumPoint) int {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Distinct
}

// survivalCurve builds the empirical survival function of
// schedules-to-first-bug: S(0) = 1, stepping down at each distinct
// first-bug time; sessions that never found the bug survive past the
// limit (right-censoring, rendered as a flat tail).
func survivalCurve(recs []numbered, limit int) []SurvivalPoint {
	n := len(recs)
	if n == 0 {
		return nil
	}
	var times []int
	for _, r := range recs {
		if fb := r.sess.FirstBug; fb >= 0 {
			times = append(times, fb)
		}
	}
	if len(times) == 0 {
		return []SurvivalPoint{{Schedules: 0, Surviving: 1}, {Schedules: limit, Surviving: 1}}
	}
	sort.Ints(times)
	out := []SurvivalPoint{{Schedules: 0, Surviving: 1}}
	dead := 0
	for i := 0; i < len(times); {
		j := i
		for j < len(times) && times[j] == times[i] {
			j++
		}
		dead += j - i
		out = append(out, SurvivalPoint{Schedules: times[i], Surviving: float64(n-dead) / float64(n)})
		i = j
	}
	if last := out[len(out)-1]; last.Schedules < limit {
		out = append(out, SurvivalPoint{Schedules: limit, Surviving: last.Surviving})
	}
	return out
}

// WriteAggregates renders the store's aggregates as the repository's
// canonical pretty-printed JSON. The bytes are a pure function of the
// record set: an interrupted-and-resumed campaign writes the same file as
// an uninterrupted one, at any worker count.
func WriteAggregates(w io.Writer, s *Store) error {
	return obs.WriteJSON(w, s.Aggregate())
}
