// Package atlas builds a live map of the schedule space a campaign is
// exploring — the "exploration atlas". It is assembled incrementally from
// data the engine already produces at every scheduling decision (the
// enabled-set size, the chosen thread, and a running prefix hash), so
// attaching it never changes a schedule: the engine folds three integers
// into a fixed block of plain counters its worker owns and nothing else.
//
// The atlas answers three questions the aggregate tables cannot:
//
//   - Cartography: how does the space branch? Per-depth decision counts,
//     enabled-set histograms, and a sample-density map that buckets
//     decision-prefix hashes at depths {4, 8, 16} into fixed 2^k grids —
//     rendered as heatmaps, uneven colour means uneven sampling.
//   - Uniformity drift: is a sampler that should be uniform (URW, SURW
//     within a Δ) still uniform right now? A streaming chi-square over the
//     per-cell class stream yields a live p-value and a latched alarm.
//   - Yield: which cells still have discovery potential? Good-Turing
//     unseen mass, survival-curve slope, and duplicate-rate trend combine
//     into a per-cell score the coordinator can weight lease grants by.
//
// Standing covenant: a nil atlas costs zero allocations on the batched
// fast path, and an attached atlas never perturbs a schedule, a
// fingerprint, or an aggregate byte.
package atlas

import (
	"math"
	"sort"
	"sync"
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
	// GridBits sizes the sample-density grids: 2^GridBits buckets each.
	GridBits = 8
	// GridSize is the bucket count of one density grid (renders 16×16).
	GridSize = 1 << GridBits
	// NumGrids is how many prefix depths get a density grid.
	NumGrids = 3
)

// GridDepths are the decision depths (1-based) at which the running
// prefix hash is bucketed into a density grid. A schedule shorter than a
// grid's depth simply never lands in it.
var GridDepths = [NumGrids]int{4, 8, 16}

// Accum is the cartography accumulator the engine writes into: plain
// counters with exactly one writer. The runner hands every worker an Accum
// of its own (sched.Options.Atlas), the engine counts into it with ordinary
// adds — no lock, no allocation, no line another CPU holds — and the worker
// moves the counts into the cell with DrainInto between schedules. Nothing
// else may touch an Accum while a schedule is writing it.
type Accum struct {
	schedules uint64
	decisions uint64
	depth     [MaxDepth]depthAccum
	grid      [NumGrids][GridSize]uint64
}

type depthAccum struct {
	count      uint64
	enabledSum uint64
	branch     [MaxBranch + 1]uint64
}

// BeginSchedule counts one schedule start. Nil-safe.
func (a *Accum) BeginSchedule() {
	if a == nil {
		return
	}
	a.schedules++
}

// Decision records one true scheduling decision (≥2 enabled threads):
// the depth-th decision point of the current schedule (1-based), with n
// enabled threads and prefix the running hash of the choices made so far,
// including this one. Nil-safe, allocation-free.
func (a *Accum) Decision(depth, n int, prefix uint64) {
	if a == nil {
		return
	}
	a.decisions++
	d := depth - 1
	if d < 0 {
		d = 0
	}
	if d >= MaxDepth {
		d = MaxDepth - 1
	}
	da := &a.depth[d]
	da.count++
	da.enabledSum += uint64(n)
	b := n
	if b > MaxBranch {
		b = MaxBranch
	}
	da.branch[b]++
	for gi := 0; gi < NumGrids; gi++ {
		if depth == GridDepths[gi] {
			a.grid[gi][prefix&(GridSize-1)]++
		}
	}
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
	for gi := range src.grid {
		for i, v := range src.grid[gi] {
			a.grid[gi][i] += v
		}
	}
}

// Schedules returns the number of schedules begun so far.
func (a *Accum) Schedules() uint64 {
	if a == nil {
		return 0
	}
	return a.schedules
}

// Snapshot materializes a bare accumulator (no uniformity state) into
// its exported form — for callers that manage cells themselves.
func (a *Accum) Snapshot() CellSnapshot {
	var cs CellSnapshot
	a.fill(&cs)
	return cs
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
	for gi := range a.grid {
		g := Grid{Depth: GridDepths[gi], Buckets: append([]uint64(nil), a.grid[gi][:]...)}
		g.finalize()
		if g.Samples > 0 {
			cs.Grids = append(cs.Grids, g)
		}
	}
}

// Cell is one campaign cell's atlas state: the cartography its workers have
// drained so far plus the uniformity tracker fed once per completed
// schedule. Both live under mu, which is taken per drain, per observed
// schedule and per snapshot — never per decision.
type Cell struct {
	mu    sync.Mutex
	acc   Accum
	drift Drift
}

// ObserveSchedule feeds one completed schedule's class fingerprint into
// the uniformity tracker. Called once per schedule from the runner, after
// the schedule has fully executed — never from the engine hot path.
func (c *Cell) ObserveSchedule(class uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.drift.Observe(class)
	c.mu.Unlock()
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
		if c.drift.samples > 0 {
			d := c.drift.Snapshot()
			cs.Uniformity = &d
		}
		c.mu.Unlock()
		s.Cells = append(s.Cells, cs)
	}
	return s
}

// Version is the atlas.json schema version.
const Version = 1

// Snapshot is the exported (JSON-able) form of an atlas: what
// `surw bench -atlas` writes to atlas.json, `surw obs -atlas` validates,
// and the dashboard renders.
type Snapshot struct {
	Version int            `json:"version"`
	Cells   []CellSnapshot `json:"cells"`
}

// CellSnapshot is one cell's cartography plus its uniformity state.
type CellSnapshot struct {
	Target     string         `json:"target"`
	Algorithm  string         `json:"algorithm"`
	Schedules  uint64         `json:"schedules"`
	Decisions  uint64         `json:"decisions"`
	MaxDepth   int            `json:"max_depth"`
	Depths     []DepthProfile `json:"depths,omitempty"`
	Grids      []Grid         `json:"grids,omitempty"`
	Uniformity *DriftSnapshot `json:"uniformity,omitempty"`
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

// Grid is one sample-density map: decision-prefix hashes at Depth
// bucketed into GridSize slots. Under a uniform sampler the buckets a
// prefix can reach fill evenly; concentration shows as hot spots.
type Grid struct {
	Depth       int      `json:"depth"`
	Buckets     []uint64 `json:"buckets"`
	Samples     uint64   `json:"samples"`
	Occupied    int      `json:"occupied"`
	EntropyBits float64  `json:"entropy_bits"`
}

// finalize recomputes the derived fields from Buckets.
func (g *Grid) finalize() {
	g.Samples, g.Occupied, g.EntropyBits = 0, 0, 0
	for _, b := range g.Buckets {
		g.Samples += b
		if b > 0 {
			g.Occupied++
		}
	}
	if g.Samples == 0 {
		return
	}
	n := float64(g.Samples)
	for _, b := range g.Buckets {
		if b > 0 {
			p := float64(b) / n
			g.EntropyBits -= p * math.Log2(p)
		}
	}
}

// MergeCells sums per-cell snapshots from several sources (one per
// worker, typically) into one fleet view, keyed by target/algorithm.
// Uniformity is dropped: drift over a partial stream is not additive, so
// the merger (the coordinator) attaches its own store-derived drift.
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
				cp.Uniformity = nil
				cp.Depths = append([]DepthProfile(nil), cs.Depths...)
				for i := range cp.Depths {
					cp.Depths[i].Branch = append([]uint64(nil), cs.Depths[i].Branch...)
				}
				cp.Grids = append([]Grid(nil), cs.Grids...)
				for i := range cp.Grids {
					cp.Grids[i].Buckets = append([]uint64(nil), cs.Grids[i].Buckets...)
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
			dst.Grids = mergeGrids(dst.Grids, cs.Grids)
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

func mergeGrids(dst, src []Grid) []Grid {
	byDepth := make(map[int]int, len(dst))
	for i, g := range dst {
		byDepth[g.Depth] = i
	}
	for _, g := range src {
		i, ok := byDepth[g.Depth]
		if !ok {
			cp := g
			cp.Buckets = append([]uint64(nil), g.Buckets...)
			dst = append(dst, cp)
			continue
		}
		d := &dst[i]
		for len(d.Buckets) < len(g.Buckets) {
			d.Buckets = append(d.Buckets, 0)
		}
		for b, v := range g.Buckets {
			d.Buckets[b] += v
		}
		d.finalize()
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Depth < dst[j].Depth })
	return dst
}
