package profile_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// profileSnap is everything a session reads from a profile, copied out of
// the collector's storage (a reused collector overwrites it) and with empty
// slices made nil, so two snapshots are reflect.DeepEqual exactly when the
// profiles say the same.
type profileSnap struct {
	Err         string
	Paths       []string
	LIDs        []int // Info.LID of each path: the index behind AddThread
	Events      []int
	Interesting []int
	Parent      []int
	Children    [][]int
	TotalEvents int
	Objs        []profile.ObjStat
	PerThread   map[profile.CountKey]int
	All         []int    // Instantiate(SelectAll()).InterestingEvents
	Draws       []string // SelectSingleVar's draw sequence, instantiated
	After       int64    // the Δ stream's next value once the draws are made
}

func snapshot(p *profile.Profile, err error) profileSnap {
	s := profileSnap{
		Err:         fmt.Sprint(err),
		Paths:       append([]string(nil), p.Info.Paths...),
		Events:      append([]int(nil), p.Info.Events...),
		Interesting: append([]int(nil), p.Info.InterestingEvents...),
		Parent:      append([]int(nil), p.Info.Parent...),
		TotalEvents: p.Info.TotalEvents,
		Objs:        append([]profile.ObjStat(nil), p.Objs...),
		PerThread:   p.PerThread(),
		All:         append([]int(nil), p.Instantiate(p.SelectAll()).InterestingEvents...),
	}
	for _, path := range p.Info.Paths {
		s.LIDs = append(s.LIDs, p.Info.LID(path))
	}
	for _, ch := range p.Info.Children {
		s.Children = append(s.Children, append([]int(nil), ch...))
	}
	rng := rand.New(rand.NewSource(int64(p.Info.TotalEvents)))
	for i := 0; i < 12; i++ {
		sel, ok := p.SelectSingleVar(rng)
		if !ok {
			s.Draws = append(s.Draws, "none")
			continue
		}
		info := p.Instantiate(sel)
		// The predicate is compared through the Δ-counts it produced and on
		// the events of the census's own objects.
		hits := 0
		for _, o := range p.Objs {
			for k := sched.OpRead; k <= sched.OpRUnlock; k++ {
				if info.Interesting(sched.Event{Kind: k, ObjHash: o.Hash}) {
					hits++
				}
			}
		}
		s.Draws = append(s.Draws, fmt.Sprint(sel.Desc, sel.Objects, info.DeltaDesc, info.InterestingEvents, info.Events, info.Paths, hits))
	}
	s.After = rng.Int63()
	return s
}

// TestCollectorReuseMatchesCollect: one Collector, reused the way a
// runner worker reuses its own — across programs, seeds, pools and
// censuses that truncate or crash — hands back each time the profile a
// fresh profile.Collect takes: the same spine, object census and
// per-thread counts, and the same SelectSingleVar draws with the same
// instantiated infos.
func TestCollectorReuseMatchesCollect(t *testing.T) {
	var col profile.Collector
	censuses := 0
	check := func(name string, pool *sched.Pool, prog func(*sched.Thread), opts profile.Options) profileSnap {
		t.Helper()
		censuses++
		got := snapshot(col.Collect(pool, prog, opts))
		want := snapshot(profile.Collect(prog, opts))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d max-steps %d (census %d of this collector): reused collector\n%+v\nfresh Collect\n%+v",
				name, opts.Seed, opts.MaxSteps, censuses, got, want)
		}
		return got
	}
	crash := func(rt *sched.Thread) {
		x := rt.NewVar("crash-x", 0)
		h := rt.Go(func(w *sched.Thread) { x.Add(w, 1); panic("census crash") })
		x.Add(rt, 1)
		rt.Join(h)
	}
	for _, name := range sctbench.Names() {
		tgt, _ := sctbench.ByName(name)
		pool := sched.NewPool()
		for seed := int64(1); seed <= 2; seed++ {
			base := sched.Base{Seed: seed + 17, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}
			check(name, pool, tgt.Prog, profile.Options{Base: base})
			// In between: a census cut off after a few events (an error
			// and a partial profile) and one whose program panics, both of
			// which leave the tables part-filled for the next census to
			// start from.
			base.MaxSteps = 5
			check(name+" truncated", pool, tgt.Prog, profile.Options{Base: base})
			check("crash", nil, crash, profile.Options{Base: sched.Base{Seed: seed}})
		}
		pool.Close()
	}
	for seed := int64(0); seed < 200; seed++ {
		prog := progfuzz.GenSync(seed, progfuzz.Config{MinThreads: 3}).Prog()
		var pool *sched.Pool // odd seeds: fresh executions, as Collect runs them
		if seed%2 == 0 {
			pool = sched.NewPool()
		}
		check(fmt.Sprintf("gensync-%d", seed), pool, prog, profile.Options{Base: sched.Base{Seed: seed ^ 0x5eed}})
		if pool != nil {
			pool.Close()
		}
	}
	// A wider program — more threads, objects and events — then a narrower
	// one on the same collector, whose tables the wide census left longer
	// than the narrow one fills: on one pool, and on that pool closed in
	// between, as a runner worker is when it is recycled.
	for seed := int64(0); seed < 40; seed++ {
		wide := progfuzz.GenSync(seed, progfuzz.Config{MinThreads: 8, MaxThreads: 8, Vars: 6, Mutexes: 3, Channels: 3, Semaphores: 2, Gates: 2})
		narrow := progfuzz.GenSync(seed, progfuzz.Config{MinThreads: 2, MaxThreads: 2, Vars: 1, Mutexes: 1, Channels: 1})
		pool := sched.NewPool()
		for _, closed := range []bool{false, true} {
			opts := profile.Options{Base: sched.Base{Seed: seed}}
			w := check(fmt.Sprintf("wide-%d", seed), pool, wide.Prog(), opts)
			if closed {
				pool.Close()
			}
			n := check(fmt.Sprintf("narrow-%d after wide, closed %v", seed, closed), pool, narrow.Prog(), opts)
			if len(w.Paths) <= len(n.Paths) || len(w.Objs) <= len(n.Objs) {
				t.Fatalf("seed %d: the wide census has %d threads and %d objects, the narrow one %d and %d",
					seed, len(w.Paths), len(w.Objs), len(n.Paths), len(n.Objs))
			}
		}
		pool.Close()
	}
}
