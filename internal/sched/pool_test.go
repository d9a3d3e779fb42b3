package sched

import (
	"reflect"
	"slices"
	"testing"
)

// poolPrograms exercises every object kind and failure mode the substrate
// supports, so pooled-versus-fresh comparisons cover gate-channel reuse,
// object-table reuse, waiter-buffer reuse, and name interning.
func poolPrograms() map[string]func(*Thread) {
	return map[string]func(*Thread){
		"vars": func(t *Thread) {
			x := t.NewVar("x", 1)
			a := t.Go(func(w *Thread) {
				for i := 0; i < 4; i++ {
					x.Update(w, func(v int64) int64 { return v << 1 })
				}
			})
			b := t.Go(func(w *Thread) {
				for i := 0; i < 4; i++ {
					x.Update(w, func(v int64) int64 { return v<<1 + 1 })
				}
			})
			t.JoinAll(a, b)
			t.SetBehavior(x.Name())
		},
		"autonames": func(t *Thread) {
			// Auto-named and colliding names walk the intern/dedup path.
			u := t.NewVar("", 0)
			v := t.NewVar("", 0)
			w1 := t.NewVar("dup", 0)
			w2 := t.NewVar("dup", 0)
			h := t.Go(func(w *Thread) { u.Add(w, 1); w1.Add(w, 1) })
			v.Add(t, 1)
			w2.Add(t, 1)
			t.Join(h)
		},
		"mutex-cond": func(t *Thread) {
			m := t.NewMutex("m")
			c := t.NewCond("c", m)
			ready := t.NewVar("ready", 0)
			h := t.Go(func(w *Thread) {
				m.Lock(w)
				for ready.Load(w) == 0 {
					c.Wait(w)
				}
				m.Unlock(w)
			})
			m.Lock(t)
			ready.Store(t, 1)
			c.Broadcast(t)
			m.Unlock(t)
			t.Join(h)
		},
		"chan-wg": func(t *Thread) {
			ch := NewChan[int](t, "ch", 1)
			wg := t.NewWaitGroup("wg")
			wg.Add(t, 2)
			for i := 0; i < 2; i++ {
				i := i
				t.Go(func(w *Thread) {
					ch.Send(w, i)
					wg.Done(w)
				})
			}
			sum := 0
			for i := 0; i < 2; i++ {
				v, _ := ch.Recv(t)
				sum += v
			}
			wg.Wait(t)
			t.Assert(sum == 1, "chan-sum")
		},
		"rwmutex-sem": func(t *Thread) {
			rw := t.NewRWMutex("rw")
			sem := t.NewSemaphore("sem", 1)
			x := t.NewVar("x", 0)
			r := t.Go(func(w *Thread) {
				rw.RLock(w)
				x.Load(w)
				rw.RUnlock(w)
			})
			wr := t.Go(func(w *Thread) {
				sem.P(w)
				rw.Lock(w)
				x.Add(w, 1)
				rw.Unlock(w)
				sem.V(w)
			})
			t.JoinAll(r, wr)
		},
		"deadlock": func(t *Thread) {
			a := t.NewMutex("a")
			b := t.NewMutex("b")
			h := t.Go(func(w *Thread) {
				b.Lock(w)
				w.Yield()
				a.Lock(w)
				a.Unlock(w)
				b.Unlock(w)
			})
			a.Lock(t)
			t.Yield()
			b.Lock(t)
			b.Unlock(t)
			a.Unlock(t)
			t.Join(h)
		},
		"truncated": func(t *Thread) {
			x := t.NewVar("x", 0)
			for {
				x.Add(t, 1)
			}
		},
	}
}

func resultsEqual(t *testing.T, name string, seed int64, fresh, pooled *Result) {
	t.Helper()
	if !reflect.DeepEqual(fresh, pooled) {
		t.Fatalf("%s seed %d: pooled result diverged\nfresh:  %+v\npooled: %+v", name, seed, fresh, pooled)
	}
}

// loggedRun is one schedule's Result with the events an EventLog recorded.
type loggedRun struct {
	res    *Result
	events []Event
}

// runLogged runs one schedule through run (Run, or a Pool's Run) with a
// fresh EventLog attached.
func runLogged(run func(func(*Thread), Algorithm, Options) *Result, prog func(*Thread), alg Algorithm, opts Options) loggedRun {
	log := new(EventLog)
	opts.Tracer = log
	return loggedRun{run(prog, alg, opts), log.Events}
}

// loggedEqual holds two logged schedules identical: their Results field for
// field and their logs event for event, each log one event a step.
func loggedEqual(t *testing.T, name string, seed int64, a, b loggedRun) {
	t.Helper()
	resultsEqual(t, name, seed, a.res, b.res)
	if len(a.events) != a.res.Steps {
		t.Fatalf("%s seed %d: the log holds %d events of %d steps", name, seed, len(a.events), a.res.Steps)
	}
	if !slices.Equal(a.events, b.events) {
		t.Fatalf("%s seed %d: event logs diverged\n%v\n%v", name, seed, a.events, b.events)
	}
}

// TestPoolMatchesFreshRun holds Pool.Run bit-identical to one-shot Run for
// every program class, over many seeds, with a single pool reused across
// all of them (including across different programs, the worst case for
// buffer recycling).
func TestPoolMatchesFreshRun(t *testing.T) {
	pool := NewPool()
	for name, prog := range poolPrograms() {
		opts := Options{Base: Base{MaxSteps: 300}}
		for seed := int64(0); seed < 40; seed++ {
			opts.Seed = seed
			opts.ProgSeed = seed / 2
			fresh := Run(prog, &pickRandom{}, opts)
			pooled := pool.Run(prog, &pickRandom{}, opts)
			resultsEqual(t, name, seed, fresh, pooled)
		}
	}
}

// TestPoolMatchesFreshRunWithTrace holds a pooled run's event log equal to
// a fresh run's, with one EventLog handed in again for every pooled run:
// each schedule rewinds it, so nothing of the last run's events is left.
func TestPoolMatchesFreshRunWithTrace(t *testing.T) {
	prog := poolPrograms()["vars"]
	pool := NewPool()
	var log EventLog
	for seed := int64(0); seed < 20; seed++ {
		opts := Options{Base: Base{Seed: seed}}
		fresh := runLogged(Run, prog, &pickRandom{}, opts)
		opts.Tracer = &log
		pooled := pool.Run(prog, &pickRandom{}, opts)
		loggedEqual(t, "vars-trace", seed, fresh, loggedRun{pooled, log.Events})
	}
}

// TestEventLogReusesStorage: a warm EventLog costs a pooled schedule no
// allocation, on RunInto as on a run with no tracer at all — the log
// rewinds its slice at BeginSchedule instead of starting a new one.
func TestEventLogReusesStorage(t *testing.T) {
	prog := poolPrograms()["vars"]
	pool := NewPool()
	defer pool.Close()
	var res Result
	var log EventLog
	bare, traced := Options{Base: Base{Seed: 1}}, Options{Base: Base{Seed: 1}, Tracer: &log}
	pool.RunInto(&res, prog, &pickRandom{}, traced) // warm-up: the pool and the log
	if len(log.Events) != res.Steps || res.Steps == 0 {
		t.Fatalf("the log holds %d events of %d steps", len(log.Events), res.Steps)
	}
	without := testing.AllocsPerRun(50, func() { pool.RunInto(&res, prog, &pickRandom{}, bare) })
	with := testing.AllocsPerRun(50, func() { pool.RunInto(&res, prog, &pickRandom{}, traced) })
	if with != without {
		t.Fatalf("a warm EventLog costs %.1f allocations a schedule, none %.1f", with, without)
	}
}

// TestPoolReusedAcrossAssertFailures checks the kill/unwind path leaves the
// pool reusable: aborted schedules recycle their threads cleanly.
func TestPoolReusedAcrossAssertFailures(t *testing.T) {
	prog := func(t *Thread) {
		x := t.NewVar("x", 0)
		h := t.Go(func(w *Thread) { x.Store(w, 1) })
		if x.Load(t) == 1 {
			t.Fail("saw-write")
		}
		t.Join(h)
	}
	pool := NewPool()
	sawBug, sawClean := false, false
	for seed := int64(0); seed < 60; seed++ {
		fresh := Run(prog, &pickRandom{}, Options{Base: Base{Seed: seed}})
		pooled := pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: seed}})
		resultsEqual(t, "assert", seed, fresh, pooled)
		if pooled.Buggy() {
			sawBug = true
		} else {
			sawClean = true
		}
	}
	if !sawBug || !sawClean {
		t.Fatalf("want both outcomes over the seeds: bug=%v clean=%v", sawBug, sawClean)
	}
}

// TestPoolSteadyStateAllocations verifies the allocation diet: once warm, a
// pooled schedule of a spawn-heavy program must allocate well under half of
// what a fresh execution does.
func TestPoolSteadyStateAllocations(t *testing.T) {
	prog := poolPrograms()["vars"]
	pool := NewPool()
	pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 0}}) // warm-up
	pooled := testing.AllocsPerRun(50, func() {
		pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 1}})
	})
	fresh := testing.AllocsPerRun(50, func() {
		Run(prog, &pickRandom{}, Options{Base: Base{Seed: 1}})
	})
	if pooled > fresh/2 {
		t.Fatalf("pooled schedule allocates %.0f objects, fresh %.0f; want < half", pooled, fresh)
	}
}

// keepEnd is a Tracer that keeps the Failure EndSchedule is shown the way
// the contract asks: by value.
type keepEnd struct{ fail Failure }

func (k *keepEnd) BeginSchedule(string)    {}
func (k *keepEnd) Decide(Decision, *State) {}
func (k *keepEnd) EndSchedule(r *Result) {
	k.fail = Failure{}
	if r.Failure != nil {
		k.fail = *r.Failure
	}
}

// TestRunIntoCarriesNothingOver: the three Into forms write the Result the
// plain forms return, whatever the storage held — in particular a failing
// schedule with a tracer leaves no Failure behind for the clean schedule
// written next, and what a Tracer
// copied at EndSchedule still says what the schedule did after the storage
// has moved on.
func TestRunIntoCarriesNothingOver(t *testing.T) {
	prog := func(t *Thread) {
		x := t.NewVar("x", 0)
		h := t.Go(func(w *Thread) { x.Store(w, 1) })
		if x.Load(t) == 1 {
			t.Fail("saw-write")
		}
		t.Join(h)
	}
	pool, ref := NewPool(), NewPool()
	defer pool.Close()
	defer ref.Close()
	var own Result
	var kept keepEnd
	failing, clean := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		traced := Options{Base: Base{Seed: seed}, Tracer: &kept}
		want := ref.Run(prog, &pickRandom{}, traced)
		if got := pool.RunInto(&own, prog, &pickRandom{}, traced); got != &own {
			t.Fatal("RunInto returned other storage than it was given")
		}
		resultsEqual(t, "RunInto traced", seed, want, &own)
		if !want.Buggy() {
			continue
		}
		failing++
		if own.Failure != &own.failure {
			t.Fatal("a failing schedule's Failure lives outside its Result")
		}
		wantFail := *want.Failure
		// The same storage, next written by schedules that pass.
		for next := seed + 1; next < seed+20; next++ {
			plain := Options{Base: Base{Seed: next}}
			want := ref.Run(prog, &pickRandom{}, plain)
			pool.RunInto(&own, prog, &pickRandom{}, plain)
			resultsEqual(t, "RunInto after a failure", next, want, &own)
			if want.Buggy() {
				continue
			}
			clean++
			if own.Failure != nil || own.Buggy() {
				t.Fatalf("seed %d after failing seed %d: storage kept %+v", next, seed, own)
			}
			if kept.fail != wantFail {
				t.Fatalf("seed %d: the tracer's copy of the failure changed with the storage: %+v, was %+v", seed, kept.fail, wantFail)
			}
			break
		}
	}
	if failing == 0 || clean == 0 {
		t.Fatalf("want failing schedules followed by clean ones: %d failing, %d clean", failing, clean)
	}

	// The checkpointed forms: a session's first schedule and its later ones.
	for seed := int64(0); seed < 20; seed++ {
		opts := Options{Base: Base{Seed: seed}}
		want, wantCp := ref.RunPrefix(prog, &pickRandom{}, opts)
		cp := pool.RunPrefixInto(&own, prog, &pickRandom{}, opts)
		resultsEqual(t, "RunPrefixInto", seed, want, &own)
		if cp.Decisions() != wantCp.Decisions() {
			t.Fatalf("seed %d: RunPrefixInto captured %d forced decisions, RunPrefix %d", seed, cp.Decisions(), wantCp.Decisions())
		}
		opts.Seed += 100
		resultsEqual(t, "RunFromInto", seed, ref.RunFrom(wantCp, prog, &pickRandom{}, opts), pool.RunFromInto(&own, cp, prog, &pickRandom{}, opts))
		resultsEqual(t, "RunFromInto(nil)", seed, ref.Run(prog, &pickRandom{}, opts), pool.RunFromInto(&own, nil, prog, &pickRandom{}, opts))
	}
}
