package campaign_test

import (
	"bytes"
	"testing"

	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// campaignCells is the tiny two-cell campaign the tests (and the ci.sh
// smoke stage) run: one target, two algorithms, coverage on so the
// aggregates exercise the estimators.
func campaignCells(t *testing.T, st *campaign.Store, sessions, workers int) []*runner.Result {
	t.Helper()
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	var out []*runner.Result
	for _, alg := range []string{"SURW", "RW"} {
		res, err := runner.RunTarget(tgt, alg, runner.Config{
			Sessions:       sessions,
			Limit:          300,
			Seed:           11,
			StopAtFirstBug: true,
			Coverage:       true,
			Workers:        workers,
			Store:          st,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func aggregateBytes(t *testing.T, st *campaign.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campaign.WriteAggregates(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole guarantee: a campaign interrupted mid-run and resumed —
// here killed after the first cell AND mid-way through the second cell's
// sessions — produces byte-identical aggregates to an uninterrupted run,
// across different worker counts.
func TestResumedCampaignAggregatesAreByteIdentical(t *testing.T) {
	// Uninterrupted reference, sequential.
	refDir := t.TempDir()
	refStore, err := campaign.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refResults := campaignCells(t, refStore, 3, 1)
	ref := aggregateBytes(t, refStore)
	refStore.Close()

	// Interrupted run: only the first cell, and only 2 of 3 sessions of
	// what will become the second cell, reach the store before the "crash".
	intDir := t.TempDir()
	intStore, err := campaign.Open(intDir)
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := sctbench.ByName("CS/reorder_4")
	partial := runner.Config{
		Sessions: 3, Limit: 300, Seed: 11,
		StopAtFirstBug: true, Coverage: true, Workers: 1, Store: intStore,
	}
	if _, err := runner.RunTarget(tgt, "SURW", partial); err != nil {
		t.Fatal(err)
	}
	partial.Sessions = 2 // a mid-cell kill: two of RW's three sessions landed
	if _, err := runner.RunTarget(tgt, "RW", partial); err != nil {
		t.Fatal(err)
	}
	intStore.Close() // the crash

	// Resume in a fresh process image, at a different worker count. Only
	// RW's third session should actually execute.
	resumed, err := campaign.Open(intDir)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	tgt2, _ := sctbench.ByName("CS/reorder_4")
	var resumedResults []*runner.Result
	for _, alg := range []string{"SURW", "RW"} {
		res, err := runner.RunTarget(tgt2, alg, runner.Config{
			Sessions: 3, Limit: 300, Seed: 11,
			StopAtFirstBug: true, Coverage: true, Workers: 4,
			Store: resumed, Metrics: metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		resumedResults = append(resumedResults, res)
	}
	got := aggregateBytes(t, resumed)
	resumed.Close()

	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed aggregates differ from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	// The resumed batch must also report the exact same Results the
	// uninterrupted run did.
	for i := range refResults {
		if !refResults[i].Equal(resumedResults[i]) {
			t.Fatalf("resumed Result[%d] differs from reference", i)
		}
	}
	// And it must not have re-executed completed sessions: only RW's
	// missing session ran, so the schedule count stays within one
	// session's budget.
	if s := metrics.Snapshot(); s.Schedules == 0 || s.Schedules > 300 {
		t.Fatalf("resume executed %d schedules, want 1..300 (one missing session)", s.Schedules)
	}
}

// Attaching the campaign store never changes what a batch observes: the
// TestTracerDoesNotPerturbSchedule invariant, extended to campaign wiring.
func TestStoreAttachmentIsObservationOnly(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	for _, alg := range []string{"SURW", "URW", "RW", "PCT-3"} {
		cfg := runner.Config{Sessions: 3, Limit: 300, Seed: 11, Coverage: true}
		plain, err := runner.RunTarget(tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := campaign.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
		cfg.Workers = 2
		stored, err := runner.RunTarget(tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Equal(stored) {
			t.Fatalf("%s: attaching the campaign store changed the result", alg)
		}
		// And a second run against the same store resumes everything.
		again, err := runner.RunTarget(tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Equal(again) {
			t.Fatalf("%s: resumed result differs", alg)
		}
		st.Close()
	}
}

// Cell completions surface as live events, and the hook sees them
// synchronously (surw bench -stop-after-cells builds its crash injection on
// this).
func TestCellEventsAndHook(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var hooked []campaign.Event
	st.CellHook = func(ev campaign.Event) { hooked = append(hooked, ev) }
	ch := st.Events().Subscribe()
	defer st.Events().Unsubscribe(ch)

	campaignCells(t, st, 2, 1)

	if len(hooked) != 2 {
		t.Fatalf("hook saw %d cells, want 2", len(hooked))
	}
	if hooked[0].Type != "cell" || hooked[0].Algorithm != "SURW" || hooked[0].Cells != 1 {
		t.Fatalf("first cell event = %+v", hooked[0])
	}
	if hooked[1].Algorithm != "RW" || hooked[1].Cells != 2 || hooked[1].Stored != 4 {
		t.Fatalf("second cell event = %+v", hooked[1])
	}
	sessions, cells := 0, 0
	for len(ch) > 0 {
		switch ev := <-ch; ev.Type {
		case "session":
			sessions++
		case "cell":
			cells++
		}
	}
	if sessions != 4 || cells != 2 {
		t.Fatalf("broker saw %d session + %d cell events, want 4 + 2", sessions, cells)
	}
}

// The aggregates carry the campaign-level curves and estimators.
func TestAggregateShape(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 3, 2)

	agg := st.Aggregate()
	if agg.Sessions != 6 || len(agg.Cells) != 2 {
		t.Fatalf("aggregate has %d sessions / %d cells, want 6 / 2", agg.Sessions, len(agg.Cells))
	}
	for _, cell := range agg.Cells {
		if cell.Target != "CS/reorder_4" || cell.SessionsStored != 3 {
			t.Fatalf("cell key/sessions wrong: %+v", cell)
		}
		if len(cell.Survival) < 2 || cell.Survival[0].Surviving != 1 || cell.Survival[0].Schedules != 0 {
			t.Fatalf("%s: survival curve malformed: %+v", cell.Algorithm, cell.Survival)
		}
		for i := 1; i < len(cell.Survival); i++ {
			if cell.Survival[i].Surviving > cell.Survival[i-1].Surviving ||
				cell.Survival[i].Schedules < cell.Survival[i-1].Schedules {
				t.Fatalf("%s: survival curve not monotone: %+v", cell.Algorithm, cell.Survival)
			}
		}
		cov := cell.Coverage
		if cov == nil {
			t.Fatalf("%s: no coverage aggregate", cell.Algorithm)
		}
		if cov.DistinctInterleavings <= 0 || cov.Samples <= 0 {
			t.Fatalf("%s: empty coverage: %+v", cell.Algorithm, cov)
		}
		if cov.Chao1 < float64(cov.DistinctInterleavings) {
			t.Fatalf("%s: Chao1 %v below observed %d", cell.Algorithm, cov.Chao1, cov.DistinctInterleavings)
		}
		if cov.GoodTuringCoverage < 0 || cov.GoodTuringCoverage > 1 ||
			cov.ClassCoverage <= 0 || cov.ClassCoverage > 1 {
			t.Fatalf("%s: estimator out of range: %+v", cell.Algorithm, cov)
		}
		if len(cov.Growth) != 3 || cov.Growth[2].Distinct != cov.DistinctInterleavings {
			t.Fatalf("%s: growth curve malformed: %+v", cell.Algorithm, cov.Growth)
		}
		if cell.Found > 0 && (cell.FirstBug == nil || len(cell.DistinctBugs) == 0 || len(cell.BugAccumulation) == 0) {
			t.Fatalf("%s: found %d bugs but summaries missing", cell.Algorithm, cell.Found)
		}
	}
}
