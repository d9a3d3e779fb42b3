package sched

import (
	"math/bits"
	"math/rand"
	"slices"
)

// Algorithm is a stateless randomized scheduling policy in the sense of the
// paper: it is re-seeded before every schedule and chooses, at each step,
// which enabled thread executes its next event.
type Algorithm interface {
	// Name identifies the algorithm in reports ("SURW", "PCT-3", ...).
	Name() string
	// Begin resets the algorithm for a fresh schedule. info carries the
	// profiling estimates (may be nil for algorithms that need none) and rng
	// is the schedule's private random stream. info is read-only — infos
	// instantiated from one profile share its paths, spawn tree and total
	// counts — so an algorithm that consumes counts copies them first.
	Begin(info *ProgramInfo, rng *rand.Rand)
	// Next returns the thread (from st.Enabled(), never empty) whose next
	// event executes now.
	Next(st *State) ThreadID
	// Observe is called after every executed event, with the state already
	// advanced (new next-events published). It sees events the scheduler
	// fast-pathed past Next (single enabled thread), so per-event
	// bookkeeping belongs here.
	Observe(ev Event, st *State)
}

// SpawnObserver is implemented by algorithms that track the spawn tree.
// ObserveSpawn fires once per created thread, after the child has run to
// its first event (so its next event is visible in st), and before the
// Observe call for the event during whose turn the spawn happened.
type SpawnObserver interface {
	ObserveSpawn(parent, child ThreadID, st *State)
}

// ProgramInfo carries the per-program estimates Algorithms 1 and 2 take as
// input: per-thread event counts, the interesting-event predicate Δ and its
// per-thread counts, and the spawn tree (for the thread-creation weight
// correction of §3.5). It is produced by package profile from a profiling
// run, or constructed by hand.
type ProgramInfo struct {
	// Paths lists the stable logical thread paths discovered by profiling;
	// the index of a path is that thread's logical ID (LID).
	Paths []string
	// Events[l] estimates the total number of events thread l executes.
	Events []int
	// InterestingEvents[l] estimates the number of Δ events on thread l.
	// When Interesting is nil this equals Events.
	InterestingEvents []int
	// Parent[l] is the LID of l's spawner (-1 for the root).
	Parent []int
	// Children[l] lists the LIDs spawned directly by l, in spawn order.
	Children [][]int
	// TotalEvents estimates the schedule length (used by PCT).
	TotalEvents int
	// Interesting is the Δ predicate; nil means every event is interesting.
	Interesting func(Event) bool
	// DeltaDesc describes the chosen Δ for reports (e.g. "var x").
	DeltaDesc string

	index map[string]int
}

// NewProgramInfo builds an empty info ready for AddThread.
func NewProgramInfo() *ProgramInfo {
	return &ProgramInfo{index: make(map[string]int)}
}

// Reset empties the info for another profile, keeping its capacity (the
// per-thread slices, each thread's Children, the path index).
func (pi *ProgramInfo) Reset() {
	clear(pi.index)
	*pi = ProgramInfo{
		Paths: pi.Paths[:0], Events: pi.Events[:0], InterestingEvents: pi.InterestingEvents[:0],
		Parent: pi.Parent[:0], Children: pi.Children[:0], index: pi.index,
	}
}

// AddThread registers a logical thread path with its parent path ("" for
// the root) and returns its LID. Re-adding an existing path returns the
// existing LID.
func (pi *ProgramInfo) AddThread(path, parentPath string) int {
	if pi.index == nil {
		pi.index = make(map[string]int)
	}
	if l, ok := pi.index[path]; ok {
		return l
	}
	l := len(pi.Paths)
	pi.index[path] = l
	pi.Paths = append(pi.Paths, path)
	pi.Events = append(pi.Events, 0)
	pi.InterestingEvents = append(pi.InterestingEvents, 0)
	pi.Parent = append(pi.Parent, -1)
	if l < cap(pi.Children) {
		// After a Reset the slot still holds an earlier thread's list.
		pi.Children = pi.Children[:l+1]
		pi.Children[l] = pi.Children[l][:0]
	} else {
		pi.Children = append(pi.Children, nil)
	}
	if parentPath != "" {
		p := pi.AddThread(parentPath, parentOf(parentPath))
		pi.Parent[l] = p
		pi.Children[p] = append(pi.Children[p], l)
	}
	return l
}

func parentOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return ""
}

// LID returns the logical ID for a thread path, or -1 if the path was not
// seen during profiling.
func (pi *ProgramInfo) LID(path string) int {
	if pi == nil || pi.index == nil {
		return -1
	}
	if l, ok := pi.index[path]; ok {
		return l
	}
	return -1
}

// NumThreads returns the number of profiled logical threads.
func (pi *ProgramInfo) NumThreads() int {
	if pi == nil {
		return 0
	}
	return len(pi.Paths)
}

// State is the scheduler-side view an Algorithm sees: the set of enabled
// threads and the next event of every live thread.
type State struct {
	ex      *Execution
	enabled []ThreadID // refreshed by the scheduler each step
}

// Enabled returns the TIDs whose next event is executable now, in ascending
// order. The slice is owned by the scheduler; do not retain it.
func (s *State) Enabled() []ThreadID {
	if ex := s.ex; ex.fast {
		// The fast engine materializes the slice from its bitmask only on
		// demand. During spawn notifications the visible set is the one
		// from the last decision — the same staleness the slow loop's
		// primeNew-before-rebuild ordering exposes.
		if ex.notifying {
			ex.materializeFrom(ex.decisionBits)
			ex.enabledStale = true
		} else if ex.enabledStale {
			ex.materializeFrom(ex.enabledBits)
			ex.enabledStale = false
		}
	}
	return s.enabled
}

// EnabledRank returns the position of tid in Enabled(), or -1 when tid is
// not enabled (or names no thread). On the batched engine it is a popcount
// of the mask Enabled() would materialize, without materializing it.
func (s *State) EnabledRank(tid ThreadID) int {
	ex := s.ex
	if !ex.fast {
		return slices.Index(s.enabled, tid)
	}
	mask := ex.enabledBits
	if ex.notifying {
		mask = ex.decisionBits
	}
	b := tbit(tid)
	if mask&b == 0 {
		return -1
	}
	return bits.OnesCount64(mask & (b - 1))
}

// NextEvent returns the published next event of a live, parked thread.
func (s *State) NextEvent(tid ThreadID) Event { return s.ex.threads[tid].next }

// Path returns the stable logical path of a thread (root "0", its k-th
// child "0.k", and so on).
func (s *State) Path(tid ThreadID) string { return s.ex.threads[tid].path }

// PathHash returns the stable 64-bit hash of a thread's path.
func (s *State) PathHash(tid ThreadID) uint64 { return s.ex.threads[tid].pathHash }

// NumThreads returns the number of threads created so far this schedule.
func (s *State) NumThreads() int { return len(s.ex.threads) }

// Finished reports whether a thread has exited.
func (s *State) Finished(tid ThreadID) bool { return s.ex.threads[tid].state == tsFinished }

// Sleeping reports whether a thread is asleep in a condition wait.
func (s *State) Sleeping(tid ThreadID) bool { return s.ex.threads[tid].state == tsSleeping }

// TIDByPath resolves a logical path to this schedule's runtime TID.
func (s *State) TIDByPath(path string) (ThreadID, bool) {
	if s.ex.byPathDirty {
		// The index is maintained lazily: spawns only mark it stale, and
		// the first query after a spawn (or a reset) rebuilds it here.
		clear(s.ex.byPath)
		for _, t := range s.ex.threads {
			s.ex.byPath[t.path] = t.id
		}
		s.ex.byPathDirty = false
	}
	tid, ok := s.ex.byPath[path]
	return tid, ok
}

// ObjName returns the stable name of a shared object.
func (s *State) ObjName(id ObjID) string {
	if id == 0 {
		return ""
	}
	return s.ex.objs[id-1].name
}

// ObjKind returns the kind of a shared object.
func (s *State) ObjKind(id ObjID) ObjKind {
	if id == 0 {
		return ObjNone
	}
	return s.ex.objs[id-1].kind
}

// Step returns the number of events executed so far.
func (s *State) Step() int { return s.ex.steps }
