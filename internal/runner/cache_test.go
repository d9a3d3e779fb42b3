package runner_test

// A WorkerCache hands a session a worker other sessions — of other cells,
// other targets, other algorithms, finished or cancelled — have already run
// on, and the algorithm instance an earlier session of its algorithm used.
// None of that may reach the session's result: each must equal the same
// session run one-shot, on a worker nobody has touched.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

func TestWorkerCacheSessionsMatchFreshRunSession(t *testing.T) {
	type cell struct {
		tgt     runner.Target
		alg     string
		session int
	}
	var cells []cell
	for _, name := range []string{"CS/reorder_4", "CS/twostage"} {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			t.Fatalf("unknown SCTBench target %q", name)
		}
		// Every algorithm, and two of them under a second spelling (a
		// worker keeps an instance per name), so a warm instance serves
		// sessions of other seeds and Δs with other algorithms' sessions
		// on its worker in between.
		for _, alg := range append(core.AllNames(), "URW", "nu", "pct-3") {
			for s := 0; s < 3; s++ {
				cells = append(cells, cell{tgt, alg, s})
			}
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	cfg := runner.Config{Limit: 60, Seed: 23, Coverage: true, CoverageEvery: 20}
	wc := runner.NewWorkerCache()
	defer wc.Close()
	for i, c := range cells {
		if i == len(cells)/2 {
			// A session cancelled between two of its testing schedules
			// (after the census and the prefix capture) goes back into the
			// cache like any other; the sessions after it run on its worker.
			ctx, cancel := context.WithCancel(context.Background())
			doomed, runs := c.tgt, 0
			doomed.Prog = func(th *sched.Thread) {
				if runs++; runs == 5 {
					cancel()
				}
				c.tgt.Prog(th)
			}
			if _, err := wc.RunSession(ctx, doomed, "SURW", cfg, 9); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled session: err = %v, want context.Canceled", err)
			}
		}
		got, err := wc.RunSession(context.Background(), c.tgt, c.alg, cfg, c.session)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runner.RunSession(context.Background(), c.tgt, c.alg, cfg, c.session)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, %s/%s session %d on the shared cache:\n got %+v\nwant %+v", i, c.tgt.Name, c.alg, c.session, got, want)
		}
	}
}
