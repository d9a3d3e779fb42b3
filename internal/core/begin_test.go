package core

import (
	"testing"

	"surw/internal/sched"
)

// wide is a bigger program than noisy: four workers append bits to x, the
// last after spawning a fifth that does the same. Its schedules touch more
// threads, logical IDs, blocked slots and priorities than noisy's do.
func wide(k int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		x := t.NewVar("x", 1)
		appendBits := func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v<<1 + int64(w.ID()&1) })
			}
		}
		var hs []*sched.Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, t.Go(appendBits))
		}
		hs = append(hs, t.Go(func(w *sched.Thread) {
			c := w.Go(appendBits)
			appendBits(w)
			w.Join(c)
		}))
		for _, h := range hs {
			t.Join(h)
		}
		t.SetBehavior(itoa(int(x.Peek())))
	}
}

// wideInfo hand-builds wide(k)'s profile, every x access interesting. Its
// logical IDs run in reverse spawn order, so no path shares noisy's LID.
func wideInfo(k int) *sched.ProgramInfo {
	pi := sched.NewProgramInfo()
	root := pi.AddThread("0", "")
	pi.Events[root] = 4
	for _, p := range []string{"0.3", "0.3.0", "0.2", "0.1", "0.0"} {
		l := pi.AddThread(p, parentPath(p))
		pi.Events[l] = k
		pi.InterestingEvents[l] = k
	}
	pi.Events[pi.LID("0.3")]++ // its join
	pi.TotalEvents = 5 + 5*k
	pi.Interesting = func(ev sched.Event) bool { return ev.Kind.IsMemAccess() && ev.ObjHash == hashOf("x") }
	return pi
}

// TestBeginResetsEveryPerScheduleField holds the contract a runner worker
// relies on when it keeps one instance per algorithm name across sessions
// (package doc): an instance whose last schedule ran another program, under
// another info and seed, schedules from its next Begin exactly as a fresh
// instance does.
func TestBeginResetsEveryPerScheduleField(t *testing.T) {
	big, bigInfo := wide(3), wideInfo(3)
	prog, info := noisy(3, 2), noisyInfo(3, 2)
	for _, name := range append(AllNames(), "URW") {
		used, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 40; seed++ {
			// Every other warm-up schedule runs with no info at all (Δ = Γ,
			// no counts).
			prev := bigInfo
			if seed%2 == 1 {
				prev = nil
			}
			sched.Run(big, used, sched.Options{Base: sched.Base{Seed: 1000 + seed}, Info: prev})
			fresh, _ := New(name)
			opts := sched.Options{Base: sched.Base{Seed: seed}, Info: info}
			want := sched.Run(prog, fresh, opts)
			got := sched.Run(prog, used, opts)
			if got.InterleavingHash != want.InterleavingHash || got.ClassHash != want.ClassHash ||
				got.Behavior != want.Behavior || got.Steps != want.Steps {
				t.Fatalf("%s seed %d: a used instance scheduled %+v, a fresh one %+v", name, seed, got, want)
			}
		}
	}
}
