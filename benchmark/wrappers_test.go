package main

import (
	"bytes"
	"reflect"
	"testing"

	"surw/internal/campaign"
	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/sched"
)

// The wrappers measure from outside; these tests hold them to changing
// nothing.

func optionalInterfaces(a sched.Algorithm) [3]bool {
	_, idx := a.(sched.IndexChooser)
	_, src := a.(sched.SourceChooser)
	_, spawn := a.(sched.SpawnObserver)
	return [3]bool{idx, src, spawn}
}

func TestTimedAlgorithmDoesNotPerturb(t *testing.T) {
	tgts, err := resolveTargets([]string{"CS/reorder_10", "Chess/WSQ", "WP/pool_2w2j"})
	if err != nil {
		t.Fatal(err)
	}
	var cells []ladderCell
	for _, tgt := range tgts {
		cells = append(cells, ladderCells(tgt, 5)...)
	}
	plain, timed := sched.NewPool(), sched.NewPool()
	defer plain.Close()
	defer timed.Close()
	for _, c := range cells {
		alg, err := core.New(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := core.New(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		var at algTimer
		wrapped := wrapAlgorithm(inner, &at)
		if got, want := optionalInterfaces(wrapped), optionalInterfaces(alg); got[0] != want[0] || got[2] != want[2] || want[1] && !got[1] {
			t.Errorf("%s: wrapper interfaces %v, algorithm %v", c.alg, got, want)
		}
		if wrapped.Name() != alg.Name() {
			t.Errorf("name %q vs %q", wrapped.Name(), alg.Name())
		}
		for seed := int64(0); seed < 40; seed++ {
			a := plain.Run(c.tgt.Prog, alg, c.opts(seed))
			b := timed.Run(c.tgt.Prog, wrapped, c.opts(seed))
			if a.InterleavingHash != b.InterleavingHash || a.ClassHash != b.ClassHash || a.Steps != b.Steps ||
				a.BugID() != b.BugID() || a.Truncated != b.Truncated {
				t.Fatalf("%s/%s seed %d: schedule differs under the timing wrapper", c.tgt.Name, c.alg, seed)
			}
		}
		if at.decisions == 0 || at.calls < at.decisions {
			t.Errorf("%s/%s: %d decisions in %d timed calls", c.tgt.Name, c.alg, at.decisions, at.calls)
		}
	}
}

func TestSpanStoreDoesNotPerturb(t *testing.T) {
	dirs, err := newScratch("/dev/shm", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dirs.remove()
	sc := huntScale(11, 3, 30, huntTargets[:3])
	plan := experiments.SCTPlan(sc)

	open := func() *campaign.Store {
		dir, err := dirs.next()
		if err != nil {
			t.Fatal(err)
		}
		st, err := campaign.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	direct, inner := open(), open()
	defer direct.Close()
	defer inner.Close()
	wrapped := newSpanStore(inner, obs.NewSpanLog(harnessTrack))

	a, b := sc, sc
	a.Store, b.Store = direct, wrapped
	ra, rb := experiments.SCTBench(a, nil), experiments.SCTBench(b, nil)
	for _, tgt := range ra.Targets {
		for _, alg := range ra.Algs {
			if !ra.Results[tgt][alg].Equal(rb.Results[tgt][alg]) {
				t.Errorf("%s/%s differs under the wrapped store", tgt, alg)
			}
		}
	}
	if got := int(wrapped.appends.Load()); got != len(plan) {
		t.Errorf("wrapper saw %d appends, plan has %d", got, len(plan))
	}
	if got := int(wrapped.lookups.Load()); got != len(plan) {
		t.Errorf("wrapper saw %d lookups, plan has %d", got, len(plan))
	}
	for _, k := range plan {
		sd, okd := direct.Lookup(k)
		sw, okw := wrapped.Lookup(k)
		if !okd || !okw || !reflect.DeepEqual(sd, sw) {
			t.Fatalf("Lookup(%v): direct %v %v, wrapped %v %v", k, sd, okd, sw, okw)
		}
	}
	var ba, bb bytes.Buffer
	if err := campaign.WriteAggregates(&ba, direct); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteAggregates(&bb, inner); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("aggregates.json differs under the wrapped store")
	}
	// Store itself returns what campaign.Store returns.
	k := runner.KeyFor(runner.Target{Name: "extra"}, "RW", runner.Config{Limit: 5, Seed: 1}, 0)
	sess := &runner.Session{FirstBug: 2, Bugs: map[string]int{"b": 1}, Schedules: 2}
	sd, errd := direct.Store(k, sess)
	sw, errw := wrapped.Store(k, sess)
	if errd != nil || errw != nil || !reflect.DeepEqual(sd, sw) {
		t.Errorf("Store: direct %v %v, wrapped %v %v", sd, errd, sw, errw)
	}
	// With no inner store the wrapper is a pass-through.
	pass := newSpanStore(nil, nil)
	if _, ok := pass.Lookup(k); ok {
		t.Error("pass-through Lookup hit")
	}
	if got, err := pass.Store(k, sess); err != nil || got != sess {
		t.Errorf("pass-through Store returned %v, %v", got, err)
	}
}

func TestFleetWrappersDoNotPerturb(t *testing.T) {
	dirs, err := newScratch("/dev/shm", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dirs.remove()
	sc := huntScale(5, 3, 30, huntTargets[:3])
	plan := experiments.SCTPlan(sc)
	aggregates := func(collect func() (*passResult, error), err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		res, err := collect()
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d sessions missing", res.failed)
		}
		return res.aggregates
	}
	local := aggregates(runHunt(sc, plan, dirs, passTrace{}))
	bare := aggregates(runFleet(sc, plan, dirs, fleetOptions{batch: 1}, passTrace{}))
	var times fleetTimes
	timed := aggregates(runFleet(sc, plan, dirs, fleetOptions{batch: 1, times: &times}, passTrace{}))
	log := obs.NewSpanLog(harnessTrack)
	pass := log.Start(log.NewRoot(), kindPass)
	spanned := aggregates(runFleet(sc, plan, dirs, fleetOptions{batch: 4}, passTrace{log: log, pass: pass.Context()}))
	pass.End()
	for name, got := range map[string][]byte{"bare fleet": bare, "timed fleet": timed, "spanned fleet": spanned} {
		if !bytes.Equal(got, local) {
			t.Errorf("%s: aggregates.json differs from the local run", name)
		}
	}
	if len(times.rtt.result) != len(plan) || len(times.handler.result) != len(plan) {
		t.Errorf("%d result round trips, %d handled, plan %d", len(times.rtt.result), len(times.handler.result), len(plan))
	}
	if len(times.rtt.lease) < len(plan) || len(times.handler.lease) != len(times.rtt.lease) {
		t.Errorf("%d lease round trips, %d handled", len(times.rtt.lease), len(times.handler.lease))
	}
	// Every handler span names the round trip that caused it, and store
	// calls made by a handler sit under it.
	spans := log.Drain()
	adoptStoreCalls(spans)
	kindOf := map[obs.SpanID]string{}
	for _, s := range spans {
		kindOf[s.ID] = s.Name
	}
	handlers, stored := 0, 0
	for _, s := range spans {
		switch s.Name {
		case kindHandler:
			handlers++
			if kindOf[s.Parent] != kindRTT {
				t.Fatalf("handler span without a round-trip parent: %+v", s)
			}
		case kindAppend:
			stored++
			if kindOf[s.Parent] != kindHandler {
				t.Fatalf("append span not under a handler: %+v", s)
			}
		}
	}
	if handlers == 0 || stored != len(plan) {
		t.Errorf("%d handler spans, %d append spans, plan %d", handlers, stored, len(plan))
	}
}
