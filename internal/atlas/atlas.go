// Package atlas builds a live map of the schedule space a campaign is
// exploring — the "exploration atlas". It is assembled incrementally from
// what the engine shows every sched.Tracer (each step's enabled-set size),
// so attaching it never changes a schedule: an Accum is such a tracer, and
// at each true decision adds two integers into a fixed block of plain
// counters its worker owns, and nothing else.
//
// The atlas is a depth profile: how does the space branch at each
// decision depth? It keeps per-depth decision counts and enabled-set
// histograms, and gives no reading of uniformity: that is checked
// offline, against exact class counts (crosscheck, Figure 2).
//
// Standing covenant: an attached atlas allocates nothing on the batched
// fast path and never perturbs a schedule, a fingerprint, or an aggregate
// byte.
package atlas

import (
	"sort"
	"sync"

	"surw/internal/sched"
)

// Shape constants. They are fixed so an accumulator is a single
// allocation-free block of counters.
const (
	// MaxDepth is the number of tracked decision depths; deeper decisions
	// fold into the last slot so the profile never loses mass.
	MaxDepth = 48
	// MaxBranch caps the enabled-set histogram; larger enabled sets fold
	// into the top bucket.
	MaxBranch = 16
)

// Accum is the cartography accumulator, a sched.Tracer: plain counters
// with exactly one writer. The runner gives every worker an Accum of its
// own, the engine's Decide calls count into it with ordinary adds — no
// lock, no allocation, no line another CPU holds — and the worker moves
// the counts into the cell with DrainInto between schedules. Nothing else
// may touch an Accum while a schedule is writing it.
type Accum struct {
	schedules uint64
	decisions uint64
	at        int // the current schedule's true decisions so far: its depth
	depth     [MaxDepth]depthAccum
}

type depthAccum struct {
	count      uint64
	enabledSum uint64
	branch     [MaxBranch + 1]uint64
}

// BeginSchedule implements sched.Tracer: it counts one schedule start and
// puts the schedule's depth back to 0.
func (a *Accum) BeginSchedule(string) {
	a.schedules++
	a.at = 0
}

// Decide implements sched.Tracer: a true scheduling decision (≥2 enabled
// threads) is recorded at the schedule's next depth; a forced step is not
// a decision and moves nothing. Allocation-free.
func (a *Accum) Decide(d sched.Decision, _ *sched.State) {
	if d.Enabled > 1 {
		a.at++
		a.record(a.at, d.Enabled)
	}
}

// EndSchedule implements sched.Tracer; the counts are already in place.
func (a *Accum) EndSchedule(*sched.Result) {}

// record counts one true decision, the depth-th of its schedule (1-based),
// with n enabled threads; deeper and wider fold into the last slots.
func (a *Accum) record(depth, n int) {
	a.decisions++
	da := &a.depth[min(depth, MaxDepth)-1]
	da.count++
	da.enabledSum += uint64(n)
	da.branch[min(n, MaxBranch)]++
}

// DrainInto adds every count a holds to c's accumulator, under the cell's
// lock, and zeroes a. The caller must be a's only user for the duration
// (the runner drains between schedules); any number of workers may drain
// into one cell. Draining a nil or empty a is a no-op.
func (a *Accum) DrainInto(c *Cell) {
	if a == nil || a.schedules|a.decisions == 0 {
		return
	}
	c.mu.Lock()
	c.acc.add(a)
	c.mu.Unlock()
	*a = Accum{}
}

// add sums src into a, visiting only the depths src recorded something in.
func (a *Accum) add(src *Accum) {
	a.schedules += src.schedules
	if src.decisions == 0 {
		return
	}
	a.decisions += src.decisions
	for d := range src.depth {
		sd, ad := &src.depth[d], &a.depth[d]
		if sd.count == 0 {
			continue
		}
		ad.count += sd.count
		ad.enabledSum += sd.enabledSum
		for b, v := range sd.branch {
			ad.branch[b] += v
		}
	}
}

// fill writes the accumulator's counts into cs in their exported wire form.
func (a *Accum) fill(cs *CellSnapshot) {
	cs.Schedules, cs.Decisions = a.schedules, a.decisions
	for d := range a.depth {
		da := &a.depth[d]
		if da.count == 0 {
			continue
		}
		cs.MaxDepth = d + 1
		top := 0
		for b, v := range da.branch {
			if v != 0 {
				top = b
			}
		}
		cs.Depths = append(cs.Depths, DepthProfile{
			Depth: d + 1, Decisions: da.count, EnabledSum: da.enabledSum,
			Branch: append([]uint64(nil), da.branch[:top+1]...),
		})
	}
}

// Cell is one campaign cell's atlas state: the cartography its workers have
// drained so far, under mu, which is taken per drain and per snapshot —
// never per decision. A cell is a sum of per-schedule counts, so its
// snapshot does not depend on the order its workers drained in.
type Cell struct {
	mu  sync.Mutex
	acc Accum
}

// Atlas is the process-wide registry of per-cell atlas state.
type Atlas struct {
	mu    sync.Mutex
	cells map[cellID]*Cell
}

type cellID struct{ target, alg string }

// New returns an empty atlas registry.
func New() *Atlas {
	return &Atlas{cells: make(map[cellID]*Cell)}
}

// Cell returns the (created-on-first-use) cell for a target/algorithm
// pair. Nil-safe: a nil atlas yields a nil cell.
func (a *Atlas) Cell(target, alg string) *Cell {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	id := cellID{target, alg}
	c := a.cells[id]
	if c == nil {
		c = &Cell{}
		a.cells[id] = c
	}
	return c
}

// Snapshot materializes every cell, sorted by target then algorithm.
func (a *Atlas) Snapshot() *Snapshot {
	s := &Snapshot{Version: Version}
	if a == nil {
		return s
	}
	a.mu.Lock()
	ids := make([]cellID, 0, len(a.cells))
	for id := range a.cells {
		ids = append(ids, id)
	}
	cells := make(map[cellID]*Cell, len(a.cells))
	for id, c := range a.cells {
		cells[id] = c
	}
	a.mu.Unlock()

	sort.Slice(ids, func(i, j int) bool {
		if ids[i].target != ids[j].target {
			return ids[i].target < ids[j].target
		}
		return ids[i].alg < ids[j].alg
	})
	for _, id := range ids {
		c := cells[id]
		cs := CellSnapshot{Target: id.target, Algorithm: id.alg}
		c.mu.Lock()
		c.acc.fill(&cs)
		c.mu.Unlock()
		s.Cells = append(s.Cells, cs)
	}
	return s
}

// Version is the atlas.json schema version.
const Version = 2

// Snapshot is the exported (JSON-able) form of an atlas: what
// `surw bench -atlas` writes to atlas.json, `surw obs -atlas` validates,
// and the dashboard renders.
type Snapshot struct {
	Version int            `json:"version"`
	Cells   []CellSnapshot `json:"cells"`
}

// CellSnapshot is one cell's cartography.
type CellSnapshot struct {
	Target    string         `json:"target"`
	Algorithm string         `json:"algorithm"`
	Schedules uint64         `json:"schedules"`
	Decisions uint64         `json:"decisions"`
	MaxDepth  int            `json:"max_depth"`
	Depths    []DepthProfile `json:"depths,omitempty"`
}

// DepthProfile is the branching profile at one decision depth. Raw sums
// are kept (not means) so fleet snapshots merge by addition.
type DepthProfile struct {
	Depth      int      `json:"depth"`
	Decisions  uint64   `json:"decisions"`
	EnabledSum uint64   `json:"enabled_sum"`
	Branch     []uint64 `json:"branch,omitempty"`
}

// MeanEnabled is the average enabled-set size at this depth.
func (p DepthProfile) MeanEnabled() float64 {
	if p.Decisions == 0 {
		return 0
	}
	return float64(p.EnabledSum) / float64(p.Decisions)
}

// MergeCells sums per-cell snapshots from several sources (one per
// worker, typically) into one fleet view, keyed by target/algorithm.
func MergeCells(groups ...[]CellSnapshot) []CellSnapshot {
	type key struct{ t, a string }
	merged := make(map[key]*CellSnapshot)
	var order []key
	for _, cells := range groups {
		for _, cs := range cells {
			k := key{cs.Target, cs.Algorithm}
			dst := merged[k]
			if dst == nil {
				cp := cs
				cp.Depths = append([]DepthProfile(nil), cs.Depths...)
				for i := range cp.Depths {
					cp.Depths[i].Branch = append([]uint64(nil), cs.Depths[i].Branch...)
				}
				merged[k] = &cp
				order = append(order, k)
				continue
			}
			dst.Schedules += cs.Schedules
			dst.Decisions += cs.Decisions
			if cs.MaxDepth > dst.MaxDepth {
				dst.MaxDepth = cs.MaxDepth
			}
			dst.Depths = mergeDepths(dst.Depths, cs.Depths)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].t != order[j].t {
			return order[i].t < order[j].t
		}
		return order[i].a < order[j].a
	})
	out := make([]CellSnapshot, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	return out
}

func mergeDepths(dst, src []DepthProfile) []DepthProfile {
	byDepth := make(map[int]int, len(dst))
	for i, p := range dst {
		byDepth[p.Depth] = i
	}
	for _, p := range src {
		i, ok := byDepth[p.Depth]
		if !ok {
			cp := p
			cp.Branch = append([]uint64(nil), p.Branch...)
			dst = append(dst, cp)
			continue
		}
		d := &dst[i]
		d.Decisions += p.Decisions
		d.EnabledSum += p.EnabledSum
		for len(d.Branch) < len(p.Branch) {
			d.Branch = append(d.Branch, 0)
		}
		for b, v := range p.Branch {
			d.Branch[b] += v
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Depth < dst[j].Depth })
	return dst
}
