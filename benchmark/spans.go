package main

import (
	"sort"
	"strconv"
	"sync"

	"surw/internal/obs"
)

// Spans are recorded by the harness from outside the program: around each
// pass, each call into a runner/experiments entry point, each SessionStore
// call, each coordinator request and each worker round trip. They are
// obs.Spans in an obs.SpanLog (nil in untraced passes, where every call is
// a no-op), kept in memory and written with obs.WriteSpanChromeTrace when
// the benchmark ends. A span's Name is its kind; what is new here is only
// how a pass's wall time is split over the kinds.

const (
	kindPass      = "pass"         // one whole pass
	kindCell      = "cell"         // one RunTarget / SCTBench / fleet-drain call
	kindSession   = "session"      // one session executing (store Lookup→Store, or lease→submit on a worker)
	kindLookup    = "store.lookup" // SessionStore.Lookup
	kindAppend    = "store.append" // SessionStore.Store
	kindAggregate = "aggregate"    // campaign.WriteAggregates
	kindRTT       = "http.rtt"     // worker-side HTTP round trip
	kindHandler   = "http.handler" // coordinator-side request handling
)

// kindNames fixes the order of the layers table.
var kindNames = []string{kindPass, kindCell, kindSession, kindLookup, kindAppend, kindAggregate, kindRTT, kindHandler}

// shareNames are the categories a pass's wall time is split into. A span's
// self time (its interval minus whatever its children cover) is charged to
// its kind's category.
var shareNames = []string{"execute", "campaign", "remote.coordinator", "remote.http", "unattributed"}

var kindShare = map[string]int{
	kindPass:      4, // orchestration between cells
	kindCell:      4, // fan-out start/stop and idle lanes inside an entry point
	kindSession:   0,
	kindLookup:    1,
	kindAppend:    1,
	kindAggregate: 1,
	kindRTT:       3,
	kindHandler:   2,
}

// passTrace is the span context of a traced pass: the log and the pass
// span everything hangs under. The zero value is an untraced pass.
type passTrace struct {
	log  *obs.SpanLog
	pass obs.SpanContext
}

// harnessTrack holds the spans the harness itself opens (pass, cell,
// aggregate); sessions, workers and handlers get a track per lane.
const harnessTrack = "harness"

// lanes hands out the lowest free lane number, so spans that overlap in
// time without nesting (two workers' sessions, two concurrent handlers)
// land on separate trace tracks.
type lanes struct {
	mu   sync.Mutex
	busy []bool
}

func (l *lanes) acquire() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.busy {
		if !b {
			l.busy[i] = true
			return i
		}
	}
	l.busy = append(l.busy, true)
	return len(l.busy) - 1
}

func (l *lanes) release(i int) {
	l.mu.Lock()
	l.busy[i] = false
	l.mu.Unlock()
}

func laneTrack(prefix string, lane int) string { return prefix + " " + strconv.Itoa(lane) }

func spanEnd(s *obs.Span) int64 { return s.Start + s.Dur }

// adoptStoreCalls re-parents the store calls a coordinator made — recorded
// under the drain's cell, because a SessionStore call carries no request
// context — under the handler span whose interval contains them, and moves
// them to that handler's track.
func adoptStoreCalls(spans []obs.Span) {
	var handlers []int
	for i := range spans {
		if spans[i].Name == kindHandler {
			handlers = append(handlers, i)
		}
	}
	if len(handlers) == 0 {
		return
	}
	sort.Slice(handlers, func(a, b int) bool { return spans[handlers[a]].Start < spans[handlers[b]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Name != kindLookup && s.Name != kindAppend {
			continue
		}
		// The latest handler that began at or before the call, then
		// earlier ones, until one is still open when the call ends.
		at := sort.Search(len(handlers), func(j int) bool { return spans[handlers[j]].Start > s.Start })
		for j := at - 1; j >= 0; j-- {
			if h := &spans[handlers[j]]; spanEnd(h) >= spanEnd(s) {
				s.Parent, s.Track = h.ID, h.Track
				break
			}
		}
	}
}

// selfTimes splits the pass span's wall time over span kinds (indexed as
// kindNames). At every instant the time goes to the deepest open spans —
// those with no open child — divided equally among them when several lanes
// run at once, so a kind is charged its self time (its spans minus what
// their children cover) and the kinds of one pass sum to the pass's wall
// time.
func selfTimes(spans []obs.Span) (self []float64, wall float64) {
	self = make([]float64, len(kindNames))
	kindOf := make(map[string]int, len(kindNames))
	for i, k := range kindNames {
		kindOf[k] = i
	}
	index := make(map[obs.SpanID]int32, len(spans))
	for i := range spans {
		index[spans[i].ID] = int32(i)
	}
	type edge struct {
		at    int64
		id    int32
		start bool
	}
	edges := make([]edge, 0, 2*len(spans))
	kind := make([]int, len(spans))
	parent := make([]int32, len(spans))
	var rootStart, rootEnd int64
	for i := range spans {
		s := &spans[i]
		k, known := kindOf[s.Name]
		if !known {
			kind[i] = -1
			continue
		}
		kind[i] = k
		parent[i] = -1
		if p, ok := index[s.Parent]; ok && !s.Parent.IsZero() {
			parent[i] = p
		}
		// Keep every span at least one tick long so its start edge sorts
		// before its end edge in the sweep.
		end := max(spanEnd(s), s.Start+1)
		if s.Name == kindPass {
			rootStart, rootEnd = s.Start, end
		}
		edges = append(edges, edge{s.Start, int32(i), true}, edge{end, int32(i), false})
	}
	// Ends before starts at equal times. The order among the starts (or
	// ends) of one instant only moves intervals of zero length.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].start && edges[b].start
	})
	open := make([]int32, len(spans)) // open children per span
	active := make([]bool, len(spans))
	leaves := make([]int, len(kindNames))
	nLeaves := 0
	setLeaf := func(i int32, on bool) {
		d := 1
		if !on {
			d = -1
		}
		leaves[kind[i]] += d
		nLeaves += d
	}
	last := rootStart
	for _, e := range edges {
		if e.at > last && nLeaves > 0 {
			lo, hi := max(last, rootStart), min(e.at, rootEnd)
			if hi > lo {
				dt := float64(hi-lo) / float64(nLeaves)
				for k, n := range leaves {
					self[k] += dt * float64(n)
				}
			}
		}
		last = max(last, e.at)
		p := parent[e.id]
		if e.start {
			active[e.id] = true
			if p >= 0 {
				if open[p] == 0 && active[p] {
					setLeaf(p, false)
				}
				open[p]++
			}
			if open[e.id] == 0 {
				setLeaf(e.id, true)
			}
		} else {
			active[e.id] = false
			if open[e.id] == 0 {
				setLeaf(e.id, false)
			}
			if p >= 0 {
				open[p]--
				if open[p] == 0 && active[p] {
					setLeaf(p, true)
				}
			}
		}
	}
	return self, float64(rootEnd - rootStart)
}

// sharesOf folds per-kind self times into shareNames fractions of wall.
func sharesOf(self []float64, wall float64) []float64 {
	shares := make([]float64, len(shareNames))
	if wall <= 0 {
		return shares
	}
	for k, ns := range self {
		shares[kindShare[kindNames[k]]] += ns / wall
	}
	return shares
}

// kindStat is one row of the layers table.
type kindStat struct {
	count        int
	totalMs      float64
	p50us, p99us float64
}

func kindStats(spans []obs.Span) map[string]kindStat {
	durations := map[string][]float64{}
	for i := range spans {
		durations[spans[i].Name] = append(durations[spans[i].Name], float64(spans[i].Dur))
	}
	out := make(map[string]kindStat, len(durations))
	for name, ds := range durations {
		st := kindStat{count: len(ds), p50us: quantile(ds, 0.5) / 1e3, p99us: quantile(ds, 0.99) / 1e3}
		for _, d := range ds {
			st.totalMs += d / 1e6
		}
		out[name] = st
	}
	return out
}
