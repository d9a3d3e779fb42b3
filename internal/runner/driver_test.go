package runner

import (
	"context"
	"testing"

	"surw/internal/sched"
)

// orderTarget is a small reorder: the checker fails when it reads a set
// and b still unset — one order of two of the four shared variables — so a
// session runs some schedules before the bug, under a Δ that varies.
func orderTarget() Target {
	return Target{
		Name: "test/order",
		Prog: func(t *sched.Thread) {
			a, b := t.NewVar("a", 0), t.NewVar("b", 0)
			p, q := t.NewVar("p", 0), t.NewVar("q", 0)
			var hs []*sched.Handle
			for i := 0; i < 4; i++ {
				hs = append(hs, t.Go(func(w *sched.Thread) {
					p.Add(w, 1)
					a.Store(w, 1)
					b.Store(w, -1)
					q.Add(w, 1)
				}))
			}
			hs = append(hs, t.Go(func(w *sched.Thread) {
				av, bv := a.Load(w), b.Load(w)
				w.Assert((av == 0 && bv == 0) || (av == 1 && bv == -1), "order")
			}))
			for _, h := range hs {
				t.Join(h)
			}
		},
	}
}

type ran struct {
	ilv, class uint64
	seed       int64
	delta, bug string
}

func witness(d *Driver, r *sched.Result) ran {
	w := ran{ilv: r.InterleavingHash, class: r.ClassHash, seed: d.Seed(), bug: r.BugID()}
	if d.info != nil {
		w.delta = d.info.DeltaDesc
	}
	return w
}

// Rerun(i) is the i-th Next: the same interleaving, class, seed and Δ, at
// schedule 0, mid-session and the failing index — out of order, and on a
// warm worker that has run another session in between.
func TestRerunIsTheIthNext(t *testing.T) {
	tgt := orderTarget()
	cfg := Config{Seed: 11}
	const limit = 200
	for _, alg := range []string{"SURW", "N-U", "URW", "PCT-3", "RW"} {
		wc := NewWorkerCache()
		w := wc.get(tgt.Name)
		d := &Driver{w}
		if err := d.begin(tgt, alg, cfg, 3); err != nil {
			t.Fatal(err)
		}
		var nexts []ran
		failing := -1
		deltas := map[string]bool{}
		for i := 0; i < limit; i++ {
			d.Next(&w.res, nil)
			nexts = append(nexts, witness(d, &w.res))
			deltas[nexts[i].delta] = true
			if failing < 0 && i > 0 && w.res.Buggy() {
				failing = i
			}
		}
		if failing < 0 {
			t.Fatalf("%s: no failing schedule past schedule 0 in %d", alg, limit)
		}
		if alg == "SURW" && len(deltas) < 2 {
			t.Fatalf("SURW drew %d distinct Δ in %d schedules: the test has no Δ stream to get wrong", len(deltas), limit)
		}

		// Another session on the same worker, then back.
		if err := d.begin(cleanTarget(), alg, Config{Seed: 99}, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			d.Next(&w.res, nil)
		}
		if err := d.begin(tgt, alg, cfg, 3); err != nil {
			t.Fatal(err)
		}
		var log sched.EventLog
		for _, i := range []int{failing, 0, limit / 2, failing, limit - 1} {
			res := d.Rerun(i, &log)
			if got := witness(d, res); got != nexts[i] {
				t.Errorf("%s: Rerun(%d) = %+v, the %d-th Next ran %+v", alg, i, got, i, nexts[i])
			}
			if len(log.Events) != res.Steps {
				t.Errorf("%s: Rerun(%d) logged %d events of %d steps", alg, i, len(log.Events), res.Steps)
			}
		}
		if d.Index() != 0 {
			t.Errorf("%s: Rerun moved the session to schedule %d", alg, d.Index())
		}
		// Reruns between Nexts leave the Nexts what they were.
		for i := 0; i < 10; i++ {
			d.Rerun((i*7)%limit, nil)
			d.Next(&w.res, nil)
			if got := witness(d, &w.res); got != nexts[i] {
				t.Errorf("%s: Next %d after a Rerun = %+v, want %+v", alg, i, got, nexts[i])
			}
		}
		wc.put(tgt.Name, w)
		wc.Close()
	}
}

// Every spelling core.New accepts runs its canonical name's session (the
// string matchers this replaces gave "NS" and "NU" no profile), while the
// session key keeps the name as typed, so stored keys do not move.
func TestAlgorithmSpellingsRunOneSession(t *testing.T) {
	tgt := orderTarget()
	cfg := Config{Limit: 120, Seed: 7, Coverage: true}
	for _, names := range [][]string{
		{"RW", "rw", "RANDOMWALK", "random"},
		{"PCT-3", "PCT", "pct", "pct-3"},
		{"PCT-10", "pct-10"},
		{"POS", "pos"},
		{"URW", "urw", " URW "},
		{"SURW", "surw"},
		{"N-U", "NU", "n-u", "nu"},
		{"N-S", "NS", "n-s", "ns"},
	} {
		want, err := RunSession(context.Background(), tgt, names[0], cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names[1:] {
			got, err := RunSession(context.Background(), tgt, name, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.equal(want) {
				t.Errorf("-alg %q: FirstBug %d over %d schedules, %q ran FirstBug %d over %d", name, got.FirstBug, got.Schedules, names[0], want.FirstBug, want.Schedules)
			}
			if k := KeyFor(tgt, name, cfg, 1); k.Algorithm != name {
				t.Errorf("KeyFor(%q).Algorithm = %q, want it as typed", name, k.Algorithm)
			}
		}
	}
}
