// Package atlas builds a live map of the schedule space a campaign is
// exploring — the "exploration atlas". It is assembled incrementally from
// data the engine already produces at every scheduling decision (the
// enabled-set size, the chosen thread, and a running prefix hash), so
// attaching it never changes a schedule: the engine folds three integers
// into fixed-size atomic counters and nothing else.
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
	"sync/atomic"
)

// Shape constants. They are fixed so the per-cell accumulator is a single
// allocation-free block of atomic counters.
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

// Accum is the cartography accumulator the engine writes into. All fields
// are atomics, so any number of writers is safe and the engine side stays
// lock-free and allocation-free — but a per-decision add on a line several
// workers share costs each of them the line, so the runner hands every
// worker an Accum of its own and moves the counts into the cell's with
// DrainInto between schedules.
type Accum struct {
	schedules atomic.Uint64
	decisions atomic.Uint64
	depth     [MaxDepth]depthAccum
	grid      [NumGrids][GridSize]atomic.Uint64
}

type depthAccum struct {
	count      atomic.Uint64
	enabledSum atomic.Uint64
	branch     [MaxBranch + 1]atomic.Uint64
}

// BeginSchedule counts one schedule start. Nil-safe.
func (a *Accum) BeginSchedule() {
	if a == nil {
		return
	}
	a.schedules.Add(1)
}

// Decision records one true scheduling decision (≥2 enabled threads):
// the depth-th decision point of the current schedule (1-based), with n
// enabled threads and prefix the running hash of the choices made so far,
// including this one. Nil-safe, lock-free, allocation-free.
func (a *Accum) Decision(depth, n int, prefix uint64) {
	if a == nil {
		return
	}
	a.decisions.Add(1)
	d := depth - 1
	if d < 0 {
		d = 0
	}
	if d >= MaxDepth {
		d = MaxDepth - 1
	}
	da := &a.depth[d]
	da.count.Add(1)
	da.enabledSum.Add(uint64(n))
	b := n
	if b > MaxBranch {
		b = MaxBranch
	}
	da.branch[b].Add(1)
	for gi := 0; gi < NumGrids; gi++ {
		if depth == GridDepths[gi] {
			a.grid[gi][prefix&(GridSize-1)].Add(1)
		}
	}
}

// DrainInto adds every count a holds to dst and zeroes a, visiting only
// the depths and buckets a recorded something in. The caller must be a's
// only writer for the duration (the runner drains between schedules); dst
// may be written concurrently. Draining a nil or empty a is a no-op.
func (a *Accum) DrainInto(dst *Accum) {
	if a == nil {
		return
	}
	move := func(from, to *atomic.Uint64) {
		if v := from.Load(); v != 0 {
			from.Store(0)
			to.Add(v)
		}
	}
	move(&a.schedules, &dst.schedules)
	if a.decisions.Load() == 0 {
		return
	}
	move(&a.decisions, &dst.decisions)
	for d := range a.depth {
		da, dd := &a.depth[d], &dst.depth[d]
		if da.count.Load() == 0 {
			continue
		}
		move(&da.count, &dd.count)
		move(&da.enabledSum, &dd.enabledSum)
		for b := range da.branch {
			move(&da.branch[b], &dd.branch[b])
		}
	}
	for gi := range a.grid {
		for i := range a.grid[gi] {
			move(&a.grid[gi][i], &dst.grid[gi][i])
		}
	}
}

// Schedules returns the number of schedules begun so far.
func (a *Accum) Schedules() uint64 {
	if a == nil {
		return 0
	}
	return a.schedules.Load()
}

// Snapshot materializes a bare accumulator (no uniformity state) into
// its exported form — for callers that manage cells themselves.
func (a *Accum) Snapshot() CellSnapshot {
	var cs CellSnapshot
	cs.Depths, cs.Grids, cs.Schedules, cs.Decisions, cs.MaxDepth = a.snapshot()
	return cs
}

// snapshot materializes the accumulator into its exported wire form.
func (a *Accum) snapshot() (deps []DepthProfile, grids []Grid, schedules, decisions uint64, maxDepth int) {
	schedules = a.schedules.Load()
	decisions = a.decisions.Load()
	for d := 0; d < MaxDepth; d++ {
		da := &a.depth[d]
		c := da.count.Load()
		if c == 0 {
			continue
		}
		maxDepth = d + 1
		p := DepthProfile{Depth: d + 1, Decisions: c, EnabledSum: da.enabledSum.Load()}
		top := 0
		for b := 0; b <= MaxBranch; b++ {
			if da.branch[b].Load() != 0 {
				top = b
			}
		}
		p.Branch = make([]uint64, top+1)
		for b := 0; b <= top; b++ {
			p.Branch[b] = da.branch[b].Load()
		}
		deps = append(deps, p)
	}
	for gi := 0; gi < NumGrids; gi++ {
		g := Grid{Depth: GridDepths[gi], Buckets: make([]uint64, GridSize)}
		for i := 0; i < GridSize; i++ {
			g.Buckets[i] = a.grid[gi][i].Load()
		}
		g.finalize()
		if g.Samples > 0 {
			grids = append(grids, g)
		}
	}
	return deps, grids, schedules, decisions, maxDepth
}

// Cell is one campaign cell's atlas state: the lock-free cartography
// accumulator plus the (mutex-guarded, off-hot-path) uniformity tracker
// fed once per completed schedule.
type Cell struct {
	acc   Accum
	mu    sync.Mutex
	drift Drift
}

// Accum returns the engine-facing accumulator. Nil-safe: a nil cell
// yields a nil accumulator, which the engine treats as "atlas off".
func (c *Cell) Accum() *Accum {
	if c == nil {
		return nil
	}
	return &c.acc
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
		cs.Depths, cs.Grids, cs.Schedules, cs.Decisions, cs.MaxDepth = c.acc.snapshot()
		c.mu.Lock()
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
