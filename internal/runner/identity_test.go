package runner_test

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.golden from what the engine runs now")

// identityCells is the identity grid: every SCTBench target under every
// Table 4 algorithm and URW, two coverage-recording sessions of 40
// schedules a cell that keep going past a bug.
func identityCells(t *testing.T) []runner.Cell {
	var cells []runner.Cell
	for _, name := range sctbench.Names() {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			t.Fatalf("no target %s", name)
		}
		for _, alg := range append(core.AllNames(), "URW") {
			cells = append(cells, runner.Cell{Target: tgt, Alg: alg,
				Config: runner.Config{Sessions: 2, Limit: 40, Seed: 1, Coverage: true}})
		}
	}
	return cells
}

// identityLine is a cell's one golden line: its schedules, each session's
// first bug, and hashes of the interleavings, classes and behaviours its
// sessions tallied, session by session.
func identityLine(res *runner.Result) string {
	ilv, cls, beh := fnv.New64a(), fnv.New64a(), fnv.New64a()
	schedules, first := 0, make([]string, len(res.Sessions))
	for i, s := range res.Sessions {
		schedules += s.Schedules
		first[i] = fmt.Sprint(s.FirstBug)
		for _, h := range slices.Sorted(maps.Keys(s.Cov.Interleavings)) {
			fmt.Fprintf(ilv, "%d:%x=%d;", i, h, s.Cov.Interleavings[h])
		}
		for _, h := range slices.Sorted(maps.Keys(s.Cov.Classes)) {
			fmt.Fprintf(cls, "%d:%x=%d;", i, h, s.Cov.Classes[h])
		}
		for _, b := range slices.Sorted(maps.Keys(s.Cov.Behaviors)) {
			fmt.Fprintf(beh, "%d:%q=%d;", i, b, s.Cov.Behaviors[b])
		}
	}
	return fmt.Sprintf("%s %s schedules=%d first=%s ilv=%016x cls=%016x beh=%016x",
		res.Target, res.Algorithm, schedules, strings.Join(first, ","), ilv.Sum64(), cls.Sum64(), beh.Sum64())
}

// unbatched runs a cell's sessions schedule by schedule on the slow loop,
// from the start every time, and tallies them as a runner session does.
func unbatched(t *testing.T, c runner.Cell) *runner.Result {
	res := &runner.Result{Target: c.Target.Name, Algorithm: c.Alg}
	for s := 0; s < c.Config.Sessions; s++ {
		d, err := runner.OpenDriver(c.Target, c.Alg, c.Config, s)
		if err != nil {
			t.Fatal(err)
		}
		sess := runner.Session{FirstBug: -1, Cov: &runner.Coverage{
			Interleavings: map[uint64]int{}, Classes: map[uint64]int{}, Behaviors: map[string]int{}}}
		for i := 0; i < c.Config.Limit; i++ {
			r := d.RunUnbatched(i)
			sess.Schedules++
			sess.Cov.Interleavings[r.InterleavingHash]++
			sess.Cov.Classes[r.ClassHash]++
			if r.Behavior != "" {
				sess.Cov.Behaviors[r.Behavior]++
			}
			if r.Buggy() && sess.FirstBug == -1 {
				sess.FirstBug = i + 1 + d.Charged()
			}
		}
		d.Close()
		res.Sessions = append(res.Sessions, sess)
	}
	return res
}

// TestIdentityGolden: what the engine runs is committed, one line per
// (target, algorithm) in testdata/identity.golden. The grid run batched at
// 1 and 4 workers, and every schedule of it run again on the slow loop
// without a checkpoint, must each print the golden lines; a change that
// moves a schedule fails here and names the rows it moved. After an
// intended change, -update rewrites the file: read its diff.
func TestIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the identity grid runs in the full suite")
	}
	golden := filepath.Join("testdata", "identity.golden")
	cells := identityCells(t)
	lines := func(results []*runner.Result) []string {
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = identityLine(res)
		}
		return out
	}
	runs := map[string][]string{}
	for _, workers := range []int{1, 4} {
		for i := range cells {
			cells[i].Config.Workers = workers
		}
		results, err := runner.RunCells(context.Background(), cells, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("batched, Workers %d", workers)] = lines(results)
	}
	var slow []*runner.Result
	for _, c := range cells {
		slow = append(slow, unbatched(t, c))
	}
	runs["slow loop"] = lines(slow)

	if *update {
		text := strings.Join(runs["batched, Workers 1"], "\n") + "\n"
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, name := range slices.Sorted(maps.Keys(runs)) {
		got := runs[name]
		if len(got) != len(want) {
			t.Errorf("%s: %d rows, %s has %d", name, len(got), golden, len(want))
			continue
		}
		moved := 0
		for i := range got {
			if got[i] != want[i] {
				moved++
				t.Errorf("%s: row %d moved:\n  got  %s\n  want %s", name, i+1, got[i], want[i])
			}
		}
		if moved > 0 {
			t.Errorf("%s: %d of %d rows moved", name, moved, len(want))
		}
	}
}
