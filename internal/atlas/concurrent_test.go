package atlas_test

import (
	"reflect"
	"testing"

	"surw/internal/atlas"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// TestSnapshotWhileWorkersDrain: the staging blocks are plain memory and
// the cell's lock is all that stands between a worker's drain and a
// heartbeat's snapshot. Four workers run sessions into one cell while this
// test snapshots and merges without pause; every view must be a whole
// number of drains — the depth profile summing to the decision count — and
// the final one must equal a one-worker run's, count for count. Run under
// -race (make race lists the package).
func TestSnapshotWhileWorkersDrain(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	// Limit past the runner's publish interval, so sessions drain both
	// mid-way and on the way out.
	cfg := runner.Config{Sessions: 8, Limit: 300, Seed: 31, Workers: 1, Atlas: atlas.New()}
	if _, err := runner.RunTarget(tgt, "RW", cfg); err != nil {
		t.Fatal(err)
	}
	want := cfg.Atlas.Snapshot().Cells

	cfg.Workers, cfg.Atlas = 4, atlas.New()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var seen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cells := cfg.Atlas.Snapshot().Cells
			if len(cells) == 0 {
				continue
			}
			c := cells[0]
			var depthSum uint64
			for _, d := range c.Depths {
				depthSum += d.Decisions
			}
			if c.Schedules < seen || depthSum != c.Decisions {
				t.Errorf("torn snapshot: %d schedules after %d, %d decisions, depth profile sums to %d", c.Schedules, seen, c.Decisions, depthSum)
				return
			}
			seen = c.Schedules
			if m := atlas.MergeCells(cells, cells); len(m) != 1 || m[0].Schedules != 2*c.Schedules || m[0].Decisions != 2*c.Decisions {
				t.Errorf("merge of a live snapshot with itself: %+v", m)
				return
			}
		}
	}()
	_, err := runner.RunTarget(tgt, "RW", cfg)
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Atlas.Snapshot().Cells
	if len(got) != 1 || got[0].Schedules != 8*300 || got[0].Decisions == 0 {
		t.Fatalf("four workers left %+v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("four workers' cell differs from one worker's:\n got %+v\nwant %+v", got[0], want[0])
	}
}
