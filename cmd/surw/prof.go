package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/report"
	"surw/internal/sched"
	"surw/internal/systematic"
)

// profileJSON is the -json wire form of the census.
type profileJSON struct {
	Target      string       `json:"target"`
	Threads     int          `json:"threads"`
	TotalEvents int          `json:"total_events"`
	PerThread   []threadJSON `json:"per_thread"`
	Objects     []objJSON    `json:"objects"`
}

type threadJSON struct {
	Path   string `json:"path"`
	Parent string `json:"parent,omitempty"`
	Events int    `json:"events"`
}

type objJSON struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Accesses int    `json:"accesses"`
	Writes   int    `json:"writes"`
	Threads  int    `json:"threads"`
	Birth    int    `json:"birth"`
}

// profCmd runs the profiling phase on a benchmark target and prints the
// census SURW consumes: per-thread event counts, the spawn tree, the
// shared-object table, and three Δ draws as a session makes them.
//
// Usage:
//
//	surw prof -target CS/wronglock [-seed S] [-json] [-pprof ADDR]
//
// -json emits the full census as machine-readable JSON (the repository's
// shared exporter encoding; see internal/obs) instead of tables.
func profCmd(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("prof", stdout, stderr)
	c.shared("target", "seed", "pprof", "version")
	asJSON := c.fs.Bool("json", false, "emit the census as JSON instead of tables")
	return c.run(args, func() error {
		tgt, err := c.resolveTarget()
		if err != nil {
			return err
		}
		prof, err := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: c.seed, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}})
		if err != nil {
			if prof == nil {
				return err
			}
			c.logf("%v (counts below are partial)", err)
		}

		if *asJSON {
			out := profileJSON{
				Target:      tgt.Name,
				Threads:     prof.Info.NumThreads(),
				TotalEvents: prof.Info.TotalEvents,
			}
			for l, path := range prof.Info.Paths {
				t := threadJSON{Path: path, Events: prof.Info.Events[l]}
				if p := prof.Info.Parent[l]; p >= 0 {
					t.Parent = prof.Info.Paths[p]
				}
				out.PerThread = append(out.PerThread, t)
			}
			for _, o := range prof.Objs {
				out.Objects = append(out.Objects, objJSON{
					Name: o.Name, Kind: o.Kind.String(),
					Accesses: o.Accesses, Writes: o.Writes, Threads: o.Threads, Birth: o.Birth,
				})
			}
			return obs.WriteJSON(stdout, out)
		}

		fmt.Fprintf(stdout, "target %s: %d logical threads, ~%d events per schedule\n\n",
			tgt.Name, prof.Info.NumThreads(), prof.Info.TotalEvents)

		tt := report.NewTable("Per-thread event counts", "Path", "Parent", "Events")
		for l, path := range prof.Info.Paths {
			parent := "-"
			if p := prof.Info.Parent[l]; p >= 0 {
				parent = prof.Info.Paths[p]
			}
			tt.AddRow(path, parent, fmt.Sprintf("%d", prof.Info.Events[l]))
		}
		fmt.Fprintln(stdout, tt.String())

		ot := report.NewTable("Shared-object census", "Name", "Kind", "Accesses", "Writes", "Threads", "Birth")
		for _, o := range prof.Objs {
			ot.AddRow(o.Name, o.Kind.String(),
				fmt.Sprintf("%d", o.Accesses), fmt.Sprintf("%d", o.Writes),
				fmt.Sprintf("%d", o.Threads), fmt.Sprintf("%d", o.Birth))
		}
		fmt.Fprintln(stdout, ot.String())

		// The Δ a session hands its schedules, drawn as the session driver
		// draws it (runner.Target.SelectDelta), then the §3.5 contrast.
		rng := rand.New(rand.NewSource(c.seed))
		st := report.NewTable("Example Δ selections", "Strategy", "Selection")
		for i := 0; i < 3; i++ {
			sel, ok := tgt.SelectDelta(prof, rng)
			if !ok {
				sel = prof.SelectAll()
			}
			st.AddRow(fmt.Sprintf("Δ draw %d", i+1),
				fmt.Sprintf("%s, per-thread Δ counts %v", sel.Desc, prof.Instantiate(sel).InterestingEvents))
		}
		if sel, ok := prof.SelectLockEntrances(); ok {
			st.AddRow("lock entrances", sel.Desc)
		}
		fmt.Fprintln(stdout, st.String())

		est := systematic.EstimateSchedules(tgt.Prog, 500, c.seed, systematic.Options{
			ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps,
		})
		fmt.Fprintf(stdout, "Knuth estimate of the schedule-space size: ~%.3g\n", est)
		return nil
	})
}
