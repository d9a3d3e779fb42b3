package replay_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/replay"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// TestRecordWatchesTheRunAsItRuns: the recorder is a tracer, so a recorded
// schedule is the one the algorithm runs unwatched, on the same engine
// path. For every algorithm on two targets and a few seeds, Record with a
// caller's EventLog behind the recorder gives the recording and result it
// gives without one; the log holds the events of a plain Pool.Run; and the
// recording replays strictly to the same fingerprints.
func TestRecordWatchesTheRunAsItRuns(t *testing.T) {
	for _, name := range []string{"CS/twostage", "Chess/WSQ"} {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			t.Fatalf("no target %s", name)
		}
		base := sched.Base{ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}
		census := base
		census.Seed = 18
		prof, err := profile.Collect(tgt.Prog, profile.Options{Base: census})
		if err != nil {
			t.Fatal(err)
		}
		sel, ok := prof.SelectSingleVar(rand.New(rand.NewSource(1)))
		if !ok {
			sel = prof.SelectAll()
		}
		info := prof.Instantiate(sel)
		pool := sched.NewPool()
		for _, alg := range append(core.AllNames(), "URW") {
			for seed := int64(1); seed <= 4; seed++ {
				base.Seed = seed
				opts := sched.Options{Base: base, Info: info, TraceFilter: tgt.TraceFilter}
				res, rec := replay.Record(tgt.Prog, newAlg(t, alg), opts)

				var log sched.EventLog
				logged := opts
				logged.Tracer = &log
				resLogged, recLogged := replay.Record(tgt.Prog, newAlg(t, alg), logged)
				if rec.String() != recLogged.String() || !reflect.DeepEqual(res, resLogged) {
					t.Fatalf("%s %s seed %d: an EventLog behind the recorder changed the run:\n%s %+v\n%s %+v",
						name, alg, seed, rec, res, recLogged, resLogged)
				}

				var plainLog sched.EventLog
				plainOpts := opts
				plainOpts.Tracer = &plainLog
				plain := pool.Run(tgt.Prog, newAlg(t, alg), plainOpts)
				if !slices.Equal(log.Events, plainLog.Events) || plain.InterleavingHash != res.InterleavingHash {
					t.Fatalf("%s %s seed %d: the recorded run's %d events differ from a plain Pool.Run's %d",
						name, alg, seed, len(log.Events), len(plainLog.Events))
				}

				replayed, err := replay.ReplayStrict(tgt.Prog, rec, sched.Options{Base: base, TraceFilter: tgt.TraceFilter})
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", name, alg, seed, err)
				}
				if replayed.InterleavingHash != res.InterleavingHash || replayed.ClassHash != res.ClassHash || replayed.BugID() != res.BugID() {
					t.Fatalf("%s %s seed %d: replay reached %#x/%#x %q, the recorded run %#x/%#x %q", name, alg, seed,
						replayed.InterleavingHash, replayed.ClassHash, replayed.BugID(), res.InterleavingHash, res.ClassHash, res.BugID())
				}
			}
		}
		pool.Close()
	}
}

func newAlg(t *testing.T, name string) sched.Algorithm {
	t.Helper()
	alg, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}
