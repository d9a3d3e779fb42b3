package sched_test

import (
	"slices"
	"testing"

	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/sched"
)

// countingTracer counts hook firings and checks per-call invariants.
type countingTracer struct {
	t       *testing.T
	begins  int
	decides int
	ends    int
	alg     string
	steps   int // from EndSchedule
}

func (c *countingTracer) BeginSchedule(alg string) {
	c.begins++
	c.alg = alg
	c.decides = 0
}

func (c *countingTracer) Decide(d sched.Decision, st *sched.State) {
	if d.Step != c.decides {
		c.t.Errorf("decision %d reported step %d", c.decides, d.Step)
	}
	c.decides++
	if d.Enabled < 1 {
		c.t.Errorf("step %d: enabled %d < 1", d.Step, d.Enabled)
	}
	if d.Enabled != len(st.Enabled()) {
		c.t.Errorf("step %d: Decision.Enabled %d != len(st.Enabled()) %d",
			d.Step, d.Enabled, len(st.Enabled()))
	}
	found := false
	for _, tid := range st.Enabled() {
		if tid == d.Chosen {
			found = true
		}
	}
	if !found {
		c.t.Errorf("step %d: chosen T%d not in enabled set %v", d.Step, d.Chosen, st.Enabled())
	}
	if d.Event.TID != d.Chosen {
		c.t.Errorf("step %d: event TID %d != chosen %d", d.Step, d.Event.TID, d.Chosen)
	}
	if d.Consulted && d.Enabled == 1 {
		c.t.Errorf("step %d: singleton enabled set reported consulted", d.Step)
	}
}

func (c *countingTracer) EndSchedule(r *sched.Result) {
	c.ends++
	c.steps = r.Steps
}

// twoThreads is a small racy program with real scheduling choice.
func twoThreads(t *sched.Thread) {
	x := t.NewVar("x", 0)
	a := t.Go(func(w *sched.Thread) {
		for i := 0; i < 4; i++ {
			x.Add(w, 1)
		}
	})
	b := t.Go(func(w *sched.Thread) {
		for i := 0; i < 4; i++ {
			x.Add(w, 2)
		}
	})
	t.Join(a)
	t.Join(b)
}

func TestTracerSeesEveryDecision(t *testing.T) {
	tr := &countingTracer{t: t}
	alg := core.NewRandomWalk()
	r := sched.Run(twoThreads, alg, sched.Options{Base: sched.Base{Seed: 7}, Tracer: tr})
	if tr.begins != 1 || tr.ends != 1 {
		t.Fatalf("begins=%d ends=%d, want 1/1", tr.begins, tr.ends)
	}
	if tr.alg != alg.Name() {
		t.Fatalf("BeginSchedule saw alg %q, want %q", tr.alg, alg.Name())
	}
	if tr.decides != r.Steps {
		t.Fatalf("Decide fired %d times for %d steps", tr.decides, r.Steps)
	}
	if tr.steps != r.Steps {
		t.Fatalf("EndSchedule saw %d steps, result has %d", tr.steps, r.Steps)
	}
}

// TestTracerDoesNotPerturbSchedule is the core observability contract:
// attaching a tracer never changes which threads are scheduled.
func TestTracerDoesNotPerturbSchedule(t *testing.T) {
	for _, name := range []string{"SURW", "URW", "POS", "RW", "PCT-3"} {
		for seed := int64(0); seed < 20; seed++ {
			algA, err := core.New(name)
			if err != nil {
				t.Fatal(err)
			}
			plain := sched.Run(twoThreads, algA, sched.Options{Base: sched.Base{Seed: seed}})
			algB, _ := core.New(name)
			traced := sched.Run(twoThreads, algB, sched.Options{Base: sched.Base{Seed: seed}, Tracer: &countingTracer{t: t}})
			if plain.InterleavingHash != traced.InterleavingHash {
				t.Fatalf("%s seed %d: tracer changed the interleaving (%x vs %x)",
					name, seed, plain.InterleavingHash, traced.InterleavingHash)
			}
		}
	}
}

// annotTracer captures the algorithm annotation at each decision.
type annotTracer struct {
	annots []string
	buf    []byte
}

func (a *annotTracer) BeginSchedule(string) {}
func (a *annotTracer) Decide(_ sched.Decision, st *sched.State) {
	a.buf = st.AppendAlgAnnotation(a.buf[:0])
	a.annots = append(a.annots, string(a.buf))
}
func (a *annotTracer) EndSchedule(*sched.Result) {}

func TestAlgorithmAnnotations(t *testing.T) {
	for _, name := range []string{"URW", "SURW"} {
		alg, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &annotTracer{}
		sched.Run(twoThreads, alg, sched.Options{Base: sched.Base{Seed: 3}, Tracer: tr})
		if len(tr.annots) == 0 {
			t.Fatalf("%s: no decisions traced", name)
		}
		nonEmpty := 0
		for _, a := range tr.annots {
			if a != "" {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Errorf("%s exposes no annotations; want weight summaries", name)
		}
	}
	// RW is deliberately annotation-free.
	tr := &annotTracer{}
	sched.Run(twoThreads, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 3}, Tracer: tr})
	for _, a := range tr.annots {
		if a != "" {
			t.Fatalf("RW produced annotation %q; want none", a)
		}
	}
}

// TestTracerAcrossPooledRuns checks the hook fires per schedule with pooled
// executions too (the runner's configuration), and that omitting the tracer
// on a later pooled run leaves it silent.
func TestTracerAcrossPooledRuns(t *testing.T) {
	pool := sched.NewPool()
	tr := &countingTracer{t: t}
	alg := core.NewRandomWalk()
	for i := 0; i < 3; i++ {
		pool.Run(twoThreads, alg, sched.Options{Base: sched.Base{Seed: int64(i)}, Tracer: tr})
	}
	if tr.begins != 3 || tr.ends != 3 {
		t.Fatalf("begins=%d ends=%d after 3 pooled runs", tr.begins, tr.ends)
	}
	pool.Run(twoThreads, alg, sched.Options{Base: sched.Base{Seed: 99}})
	if tr.begins != 3 {
		t.Fatalf("tracer fired on a run without Options.Tracer")
	}
}

// decisionRec is one Decide call as a recordingTracer saw it: the Decision
// plus a copy of the enabled set st exposed during the call.
type decisionRec struct {
	d       sched.Decision
	enabled []sched.ThreadID
}

type recordingTracer struct{ recs []decisionRec }

func (r *recordingTracer) BeginSchedule(string) { r.recs = r.recs[:0] }
func (r *recordingTracer) Decide(d sched.Decision, st *sched.State) {
	r.recs = append(r.recs, decisionRec{d, append([]sched.ThreadID(nil), st.Enabled()...)})
}
func (r *recordingTracer) EndSchedule(*sched.Result) {}

// sameStream fails the test unless the two tracers saw the same Decide
// calls in the same order.
func sameStream(t *testing.T, label string, got, want *recordingTracer) {
	t.Helper()
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d decisions, want %d", label, len(got.recs), len(want.recs))
	}
	for i := range got.recs {
		g, w := got.recs[i], want.recs[i]
		if g.d != w.d || !slices.Equal(g.enabled, w.enabled) {
			t.Fatalf("%s: decision %d: got %+v enabled %v, want %+v enabled %v", label, i, g.d, g.enabled, w.d, w.enabled)
		}
	}
}

// prefixThenRace runs alone for six events — a forced prefix — before two
// children introduce free choices.
func prefixThenRace(t *sched.Thread) {
	x := t.NewVar("x", 0)
	for i := 0; i < 6; i++ {
		x.Add(t, 1)
	}
	twoThreads(t)
}

// TestTracedCheckpoint holds that a tracer no longer costs a session its
// checkpoint: RunPrefix under a tracer seals one, and RunFrom with it shows
// the tracer every forced step exactly once — the whole stream equal to a
// full run on the slow loop.
func TestTracedCheckpoint(t *testing.T) {
	pool := sched.NewPool()
	defer pool.Close()
	alg := core.NewRandomWalk()
	tr := &recordingTracer{}
	_, cp := pool.RunPrefix(prefixThenRace, alg, sched.Options{Base: sched.Base{Seed: 1}, Tracer: tr})
	if cp.Decisions() < 6 {
		t.Fatalf("traced RunPrefix sealed %d forced decisions, want at least 6", cp.Decisions())
	}
	for seed := int64(2); seed < 12; seed++ {
		res := pool.RunFrom(cp, prefixThenRace, alg, sched.Options{Base: sched.Base{Seed: seed}, Tracer: tr})
		if len(tr.recs) != res.Steps {
			t.Fatalf("seed %d: %d decisions for %d steps", seed, len(tr.recs), res.Steps)
		}
		for i, r := range tr.recs[:cp.Decisions()] {
			if r.d.Step != i || r.d.Enabled != 1 || r.d.Consulted || len(r.enabled) != 1 || r.enabled[0] != r.d.Chosen {
				t.Fatalf("seed %d: forced step %d traced as %+v enabled %v", seed, i, r.d, r.enabled)
			}
		}
		slow := &recordingTracer{}
		ref := sched.Run(prefixThenRace, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}, Tracer: slow, DisableBatching: true})
		if ref.InterleavingHash != res.InterleavingHash {
			t.Fatalf("seed %d: traced replay changed the interleaving", seed)
		}
		sameStream(t, "replayed vs slow loop", tr, slow)
	}
}

// TestTracerStreamAcrossBailOut: a program that outgrows the batched
// engine's 64-thread mask mid-schedule hands the rest of the schedule to
// the slow loop; the tracer must see one stream — every step once, in
// order — across the hand-over.
func TestTracerStreamAcrossBailOut(t *testing.T) {
	prog := func(th *sched.Thread) {
		c := th.NewVar("c", 0)
		early := th.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				c.Add(w, 1)
			}
		})
		for i := 0; i < 4; i++ {
			c.Add(th, 1) // free choices, decided on the batched engine
		}
		hs := make([]*sched.Handle, 70)
		for i := range hs {
			hs[i] = th.Go(func(w *sched.Thread) { c.Add(w, 1) })
		}
		th.Join(early)
		th.JoinAll(hs...)
	}
	for seed := int64(0); seed < 5; seed++ {
		tr, slow := &recordingTracer{}, &recordingTracer{}
		res := sched.Run(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}, Tracer: tr})
		if res.Buggy() || res.Threads != 72 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		for i, r := range tr.recs {
			if r.d.Step != i {
				t.Fatalf("seed %d: decision %d carries step %d", seed, i, r.d.Step)
			}
		}
		if len(tr.recs) != res.Steps {
			t.Fatalf("seed %d: %d decisions for %d steps", seed, len(tr.recs), res.Steps)
		}
		sched.Run(prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}, Tracer: slow, DisableBatching: true})
		sameStream(t, "bailed vs slow loop", tr, slow)
	}
}

// panicAt panics on its n-th Decide call.
type panicAt struct{ n, seen int }

func (p *panicAt) BeginSchedule(string) { p.seen = 0 }
func (p *panicAt) Decide(sched.Decision, *sched.State) {
	if p.seen++; p.seen == p.n {
		panic("tracer bug")
	}
}
func (p *panicAt) EndSchedule(*sched.Result) {}

// TestPanickingTracerIsEnginePanic: Decide runs on a program goroutine, but
// a tracer that panics is a bug in the tooling, not in the program under
// test — it must reach the caller of Run as a panic, never be filed as the
// schedule's FailPanic. Call 3 is a forced step (replayed from the
// checkpoint in the RunFrom arm), call 9 a free choice.
func TestPanickingTracerIsEnginePanic(t *testing.T) {
	alg := core.NewRandomWalk()
	for _, n := range []int{3, 9} {
		for _, arm := range []struct {
			name string
			run  func(sched.Options) *sched.Result
		}{
			{"Run", func(o sched.Options) *sched.Result { return sched.Run(prefixThenRace, alg, o) }},
			{"RunFrom", func(o sched.Options) *sched.Result {
				p := sched.NewPool()
				defer p.Close()
				_, cp := p.RunPrefix(prefixThenRace, alg, sched.Options{Base: sched.Base{Seed: 1}})
				return p.RunFrom(cp, prefixThenRace, alg, o)
			}},
		} {
			func() {
				defer func() {
					if r := recover(); r != "tracer bug" {
						t.Fatalf("%s, Decide call %d: recovered %v, want the tracer's panic", arm.name, n, r)
					}
				}()
				res := arm.run(sched.Options{Base: sched.Base{Seed: 2}, Tracer: &panicAt{n: n}})
				t.Fatalf("%s, Decide call %d: schedule returned %+v", arm.name, n, res.Failure)
			}()
		}
	}
}

// TestMetricsTracerAllocatesNothing: watching a warm pooled schedule with
// the production tracer costs no allocation the unwatched schedule does not
// make.
func TestMetricsTracerAllocatesNothing(t *testing.T) {
	alg := core.NewRandomWalk()
	tracer := obs.NewMetrics().Tracer()
	allocs := func(tr sched.Tracer) float64 {
		pool := sched.NewPool()
		defer pool.Close()
		opts := sched.Options{Base: sched.Base{Seed: 1}, Tracer: tr}
		pool.Run(twoThreads, alg, opts) // warm-up
		return testing.AllocsPerRun(100, func() { pool.Run(twoThreads, alg, opts) })
	}
	if plain, traced := allocs(nil), allocs(tracer); traced != plain {
		t.Fatalf("traced schedule allocates %.0f objects, untraced %.0f", traced, plain)
	}
}
