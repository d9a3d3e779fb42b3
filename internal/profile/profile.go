// Package profile implements the paper's profiling phase (§3.6, §4.1): one
// census run of the program under a baseline scheduler that records
// per-thread event counts, the spawn tree, and a census of shared objects.
// From a Profile, the Δ-selection heuristics produce the interesting-event
// subset and the per-thread Δ-counts that SURW takes as input.
package profile

import (
	"errors"
	"fmt"
	"math/rand"

	"surw/internal/core"
	"surw/internal/sched"
)

// ObjStat summarizes one shared object in the census.
type ObjStat struct {
	Name     string
	Kind     sched.ObjKind
	Hash     uint64
	Accesses int // total counted events on the object
	Writes   int // write-classified events
	Threads  int // distinct logical threads that touched it
	Birth    int // creation rank (proxy for memory adjacency)
}

// Profile is the output of Collect. Its selections memoise on it, so a
// profile belongs to one goroutine at a time, as a session's does. The
// profile of a reused Collector is that collector's storage: it, and every
// Selection and info made from it, are good until the collector's next
// Collect.
type Profile struct {
	// Info carries thread paths, the spawn tree, per-thread total event
	// counts and the total event count; Interesting is unset until a
	// selection is instantiated.
	Info *sched.ProgramInfo
	// Objs is the shared-object census sorted by creation rank: Objs[i]
	// has Birth i.
	Objs []ObjStat

	// counts[lid][obj<<kindBits|kind] is how many events of that kind
	// thread lid performed on Objs[obj], for recomputing per-thread
	// interesting counts under any Δ predicate; touched lists the non-zero
	// cells, each once.
	counts  [][]int32
	touched []cell

	// SelectAll's info, filled on first use.
	all   sched.ProgramInfo
	allOK bool

	// SelectSingleVar's state. shared is sharedVars() and sharedTotal the
	// sum of their access counts, both computed on first use (sharedOK);
	// single[i] is shared[i]'s selection, resolved through vars — which
	// outlives the profile's contents: what a selection says of a variable
	// depends on its name alone — and instantiated the first time it is
	// drawn.
	shared      []ObjStat
	sharedTotal int
	sharedOK    bool
	single      []*varSel
	vars        map[string]*varSel
}

// cell names one counter of Profile.counts.
type cell struct{ lid, idx int32 }

// kindBits is the width of the op-kind field of a counts index.
const kindBits = 4

// Every sched.OpKind fits the field (OpRUnlock is the last one).
var _ [1<<kindBits - 1 - sched.OpRUnlock]struct{}

// varSel is SelectSingleVar's selection of one variable with its
// instantiation for the profile's current contents.
type varSel struct {
	sel  Selection
	info sched.ProgramInfo
}

// Options configures Collect. The embedded sched.Base carries the shared
// Seed (census scheduler, a random walk), ProgSeed (must match the later
// testing runs for the counts to be meaningful) and MaxSteps fields.
type Options struct {
	sched.Base
}

// Collector takes censuses into storage it keeps: the count tables, the
// profile's spine, the selections SelectSingleVar and SelectAll hand out
// and their infos are all reused by the next Collect, so the census of a
// warm collector on a warm pool allocates nothing of its own. The zero
// value is ready to use; one goroutine at a time. runner gives each of its
// workers one — a worker serves one target, so the tables keep their size.
type Collector struct {
	prof Profile
	info sched.ProgramInfo
	rw   core.RandomWalk
	res  sched.Result

	objIdx map[uint64]int32 // object-name hash -> index into prof.Objs
	// This run's TID -> LID and ObjID -> index+1 into prof.Objs, so that
	// an event pays the path and name lookups only on first sight.
	lids []int
	byID []int32
}

// census is the Collector as the sched.Tracer of its census run: it counts
// each event as the engine shows it, before the event executes, while the
// collector's random walk decides on the engine's fast paths.
type census Collector

// BeginSchedule implements sched.Tracer: the run's thread and object
// numbering starts over.
func (c *census) BeginSchedule(string) { c.lids, c.byID = c.lids[:0], c.byID[:0] }

// EndSchedule implements sched.Tracer.
func (*census) EndSchedule(*sched.Result) {}

func parentPath(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return ""
}

// Decide implements sched.Tracer: it counts d's event.
func (c *census) Decide(d sched.Decision, st *sched.State) {
	ev := &d.Event
	for len(c.lids) <= ev.TID {
		path := st.Path(len(c.lids))
		c.lids = append(c.lids, c.info.AddThread(path, parentPath(path)))
	}
	lid := c.lids[ev.TID]
	c.info.Events[lid]++
	c.info.TotalEvents++
	if ev.Obj == 0 {
		return
	}
	for len(c.byID) < int(ev.Obj) {
		c.byID = append(c.byID, 0)
	}
	obj := c.byID[ev.Obj-1] - 1
	p := &c.prof
	if obj < 0 {
		var ok bool
		if obj, ok = c.objIdx[ev.ObjHash]; !ok {
			obj = int32(len(p.Objs))
			c.objIdx[ev.ObjHash] = obj
			p.Objs = append(p.Objs, ObjStat{Name: st.ObjName(ev.Obj), Kind: st.ObjKind(ev.Obj), Hash: ev.ObjHash, Birth: int(obj)})
		}
		c.byID[ev.Obj-1] = obj + 1
	}
	os := &p.Objs[obj]
	os.Accesses++
	if ev.Kind.IsWrite() {
		os.Writes++
	}
	for len(p.counts) <= lid {
		p.counts = append(p.counts, nil)
	}
	row, idx := p.counts[lid], int(obj)<<kindBits|int(ev.Kind)
	if idx >= len(row) {
		// Zeroes: a cell is cleared when its profile is done with it.
		row = append(row, make([]int32, (int(obj)+1)<<kindBits-len(row))...)
		p.counts[lid] = row
	}
	if row[idx] == 0 {
		p.touched = append(p.touched, cell{int32(lid), int32(idx)})
	}
	row[idx]++
}

// Collect runs the program once under a random walk and returns its
// profile, as the paper profiles (§3.6). A run that crashes still yields
// its partial counts (the paper's RaceBench discussion notes exactly this
// hazard); so does one the step budget cuts off, with an error.
func Collect(prog func(*sched.Thread), opts Options) (*Profile, error) {
	return new(Collector).Collect(nil, prog, opts)
}

// reset empties the profile for the next census: the cells the last one
// counted into go back to zero, everything else is truncated in place.
func (p *Profile) reset() {
	for _, c := range p.touched {
		p.counts[c.lid][c.idx] = 0
	}
	p.Objs, p.touched, p.shared = p.Objs[:0], p.touched[:0], p.shared[:0]
	p.allOK, p.sharedOK, p.sharedTotal = false, false, 0
}

// Collect is profile.Collect with the census run on pool — the warm pool of
// the session about to test prog; nil for a fresh execution — and taken
// into the collector's storage. Pool.Run is bit-identical to sched.Run, so
// the profile — its counts, the selections drawn from it — is a fresh
// Collect's, whatever the collector profiled before. It replaces the
// collector's previous profile (see Profile).
func (c *Collector) Collect(pool *sched.Pool, prog func(*sched.Thread), opts Options) (*Profile, error) {
	p := &c.prof
	p.reset()
	c.info.Reset()
	p.Info = &c.info
	clear(c.objIdx)
	if c.objIdx == nil {
		c.objIdx = make(map[uint64]int32)
	}
	so := sched.Options{Base: opts.Base, Tracer: (*census)(c)}
	res := &c.res
	if pool != nil {
		pool.RunInto(res, prog, &c.rw, so)
	} else {
		res = sched.Run(prog, &c.rw, so)
	}
	// An object's Threads is the number of threads with a cell on it,
	// counted at each thread's first one.
	for _, t := range p.touched {
		row := p.counts[t.lid]
		first := t.idx &^ (1<<kindBits - 1)
		for first < t.idx && row[first] == 0 {
			first++
		}
		if first == t.idx {
			p.Objs[t.idx>>kindBits].Threads++
		}
	}
	if res.Truncated {
		return p, errors.New("profile: the census run hit the step budget")
	}
	return p, nil
}

// Selection is a chosen interesting-event subset Δ.
type Selection struct {
	// Desc describes the selection for reports.
	Desc string
	// Objects lists the selected object names (empty for custom or
	// all-event selections).
	Objects []string
	// Interesting is the Δ predicate; nil means Δ = Γ.
	Interesting func(sched.Event) bool

	// info is from's instantiation of this selection, carried by the
	// selections SelectSingleVar and SelectAll hand out again and again so
	// that Instantiate returns it instead of building another.
	info *sched.ProgramInfo
	from *Profile
}

// AccessTo builds a Δ predicate matching shared-memory accesses to the
// named variables.
func AccessTo(names ...string) func(sched.Event) bool {
	if len(names) == 1 {
		// SCTBench's Δ is always one variable, and the engine and SURW ask
		// up to three times per event: compare the hash, skip the map.
		h := sched.HashName(names[0])
		return func(ev sched.Event) bool { return ev.ObjHash == h && ev.Kind.IsMemAccess() }
	}
	set := make(map[uint64]bool, len(names))
	for _, n := range names {
		set[sched.HashName(n)] = true
	}
	return func(ev sched.Event) bool {
		return ev.Kind.IsMemAccess() && set[ev.ObjHash]
	}
}

// LockAcquireOf builds a Δ predicate matching acquisitions of the named
// mutexes (the §3.5 critical-section entrance strategy).
func LockAcquireOf(names ...string) func(sched.Event) bool {
	set := make(map[uint64]bool, len(names))
	for _, n := range names {
		set[sched.HashName(n)] = true
	}
	return func(ev sched.Event) bool {
		return (ev.Kind == sched.OpLock || ev.Kind == sched.OpWakeLock) && set[ev.ObjHash]
	}
}

// sharedVars returns the census vars touched by at least two threads,
// sorted by creation rank.
func (p *Profile) sharedVars() []ObjStat { return p.appendSharedVars(nil) }

func (p *Profile) appendSharedVars(out []ObjStat) []ObjStat {
	for _, o := range p.Objs {
		if o.Kind == sched.ObjVar && o.Threads >= 2 {
			out = append(out, o)
		}
	}
	return out
}

// SelectSingleVar implements the paper's SCTBench/ConVul instantiation:
// Δ is every access to a single shared variable, drawn with probability
// proportional to its total access count. Returns ok=false when the census
// saw no shared variable. It consumes exactly one rng.Intn per call, and
// drawing a variable a second time allocates nothing; on a reused
// Collector neither does the first, once the variable's name has been seen.
func (p *Profile) SelectSingleVar(rng *rand.Rand) (Selection, bool) {
	if !p.sharedOK {
		p.sharedOK = true
		p.shared = p.appendSharedVars(p.shared)
		for _, o := range p.shared {
			p.sharedTotal += o.Accesses
		}
		p.single = append(p.single[:0], make([]*varSel, len(p.shared))...)
	}
	if len(p.shared) == 0 {
		return Selection{}, false
	}
	x := rng.Intn(p.sharedTotal) // total > 0: census objects have >= 1 access
	i := 0
	for x >= p.shared[i].Accesses {
		x -= p.shared[i].Accesses
		i++
	}
	vs := p.single[i]
	if vs == nil {
		name := p.shared[i].Name
		if vs = p.vars[name]; vs == nil {
			vs = &varSel{sel: Selection{Desc: fmt.Sprintf("accesses to var %q", name), Objects: []string{name}, Interesting: AccessTo(name)}}
			vs.sel.info, vs.sel.from = &vs.info, p
			if p.vars == nil {
				p.vars = make(map[string]*varSel)
			}
			p.vars[name] = vs
		}
		p.fill(&vs.info, vs.sel)
		p.single[i] = vs
	}
	return vs.sel, true
}

// SelectRegion implements the RaceBench instantiation: Δ is every access to
// a random "memory region" — a run of consecutively created shared
// variables — grown until the combined access count reaches minAccesses.
func (p *Profile) SelectRegion(rng *rand.Rand, minAccesses int) (Selection, bool) {
	shared := p.sharedVars()
	if len(shared) == 0 {
		return Selection{}, false
	}
	start := rng.Intn(len(shared))
	var names []string
	sum := 0
	for i := start; i < len(shared) && (sum < minAccesses || len(names) == 0); i++ {
		names = append(names, shared[i].Name)
		sum += shared[i].Accesses
	}
	for i := start - 1; i >= 0 && sum < minAccesses; i-- {
		names = append(names, shared[i].Name)
		sum += shared[i].Accesses
	}
	return Selection{
		Desc:        fmt.Sprintf("region of %d vars (%d accesses)", len(names), sum),
		Objects:     names,
		Interesting: AccessTo(names...),
	}, true
}

// SelectLockEntrances marks every mutex acquisition as interesting (§3.5).
func (p *Profile) SelectLockEntrances() (Selection, bool) {
	var names []string
	for _, o := range p.Objs {
		if o.Kind == sched.ObjMutex {
			names = append(names, o.Name)
		}
	}
	if len(names) == 0 {
		return Selection{}, false
	}
	return Selection{
		Desc:        fmt.Sprintf("acquisitions of %d locks", len(names)),
		Objects:     names,
		Interesting: LockAcquireOf(names...),
	}, true
}

// SelectAll marks every event interesting (Δ = Γ, the N-S configuration).
// The selection carries its info, built once per profile.
func (p *Profile) SelectAll() Selection {
	sel := Selection{Desc: "all events (Δ = Γ)"}
	if !p.allOK {
		p.allOK = true
		p.fill(&p.all, sel)
	}
	sel.info, sel.from = &p.all, p
	return sel
}

// SelectCustom wraps an expert-provided predicate (the LightFTP mode).
func SelectCustom(desc string, pred func(sched.Event) bool) Selection {
	return Selection{Desc: desc, Interesting: pred}
}

// Instantiate produces the ProgramInfo to hand to an algorithm: the profiled
// counts plus the selection's Δ predicate and the per-thread Δ-counts
// implied by the census. The result shares the profile's paths, spawn tree
// and total counts — nothing reads an info but to copy from it (see
// sched.Algorithm.Begin) — and owns only its InterestingEvents.
func (p *Profile) Instantiate(sel Selection) *sched.ProgramInfo {
	if sel.info != nil && sel.from == p {
		return sel.info
	}
	info := new(sched.ProgramInfo)
	p.fill(info, sel)
	return info
}

// fill makes *info sel's instantiation, reusing its InterestingEvents.
func (p *Profile) fill(info *sched.ProgramInfo, sel Selection) {
	ie := info.InterestingEvents[:0]
	*info = *p.Info
	info.Interesting = sel.Interesting
	info.DeltaDesc = sel.Desc
	if sel.Interesting == nil {
		info.InterestingEvents = append(ie, info.Events...)
		return
	}
	ie = append(ie, make([]int, len(info.Events))...)
	for _, c := range p.touched {
		ev := sched.Event{Kind: sched.OpKind(c.idx & (1<<kindBits - 1)), ObjHash: p.Objs[c.idx>>kindBits].Hash}
		if sel.Interesting(ev) {
			ie[c.lid] += int(p.counts[c.lid][c.idx])
		}
	}
	info.InterestingEvents = ie
}
