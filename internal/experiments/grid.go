package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"surw/internal/runner"
)

// Progress receives experiment progress lines; nil discards them.
type Progress func(format string, args ...any)

// grid is an experiment as data: its algorithm columns in table order, its
// (row × algorithm) cells in run order — row-major, and a row is one
// target, so a run holds warm workers for the rows in flight only
// (runner.RunCells) — and the progress line a finished cell prints. A
// cell's Config says what the cell is (everything a session key is made
// of); how it is run — Workers, Metrics, Store — is run's to add, so a plan
// and a run enumerate the same cells.
type grid struct {
	algs  []string
	cells []runner.Cell
	line  func(i int, res *runner.Result) string
}

// grids are the session-backed experiments by their `surw bench` names.
// Figure 2 samples schedules directly: it has no sessions, so no grid.
var grids = map[string]func(Scale) grid{"sct": sctGrid, "rb": rbGrid, "ftp": ftpGrid}

// Plan enumerates the session keys of the named experiments ("sct", "rb",
// "ftp"; any other name has no sessions) in run order — the shard units of
// a distributed campaign, and the keys a local run of the same experiments
// looks up and stores, so either finds in a store what the other put there.
func Plan(sc Scale, names ...string) []runner.SessionKey {
	var cells []runner.Cell
	for _, name := range names {
		if g := grids[name]; g != nil {
			cells = append(cells, g(sc).cells...)
		}
	}
	return runner.Plan(cells)
}

// run executes the grid's plan — every session of every cell, drained in
// plan order by sc.Workers workers on one warm cache — and returns the
// cells' results in cell order: bit-identical at any worker count.
func run(sc Scale, g grid, progress Progress) gridRun {
	for i := range g.cells {
		cfg := &g.cells[i].Config
		cfg.Workers, cfg.Metrics, cfg.Store = sc.Workers, sc.Metrics, sc.Store
	}
	var done func(int, *runner.Result)
	if progress != nil {
		var mu sync.Mutex // cells finish on any worker; their lines must not interleave
		done = func(i int, res *runner.Result) {
			line := g.line(i, res)
			mu.Lock()
			defer mu.Unlock()
			progress("%s", line)
		}
	}
	results, err := runner.RunCells(context.Background(), g.cells, done)
	if err != nil {
		panic(err)
	}
	return gridRun{g.algs, results}
}

// gridRun is what a grid run leaves: the grid's algorithm columns and every
// cell's result, in cell order.
type gridRun struct {
	algs    []string
	results []*runner.Result
}

// ThroughputFooter renders the scheduler-throughput line surw bench prints
// beside a grid's tables: schedules per worker-second (a cell's Elapsed is
// the summed run time of the sessions it executed) over the cells of each
// algorithm column, and over the grid. A timing, so it goes to stderr,
// never into the tables, which stay bit-identical. It rates what a cell
// executed: a cell served from the campaign store is left out, and a grid
// of such cells (a resumed or fleet-drained campaign) has no footer.
func (r gridRun) ThroughputFooter() string {
	parts := make([]string, 0, len(r.algs))
	totalSched, totalSec := 0, 0.0
	for _, alg := range r.algs {
		sched, sec := 0, 0.0
		for _, res := range r.results {
			if res.Algorithm == alg && res.Executed > 0 && res.Elapsed > 0 {
				sched += res.Executed
				sec += res.Elapsed.Seconds()
			}
		}
		totalSched += sched
		totalSec += sec
		if sec > 0 {
			parts = append(parts, fmt.Sprintf("%s %.0f", alg, float64(sched)/sec))
		}
	}
	if totalSec == 0 {
		return ""
	}
	return fmt.Sprintf("schedules per worker-second per cell: %s; overall %.0f",
		strings.Join(parts, ", "), float64(totalSched)/totalSec)
}
