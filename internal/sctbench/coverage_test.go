package sctbench

import (
	"testing"

	"surw/internal/runner"
)

// TestBitshiftGroundTruth checks the property that makes the bitshift
// probe useful for dedup validation: every writer event conflicts on the
// same variable, so the commutation-class partition is exactly the C(6,3)
// outcome partition, which the final value of x (the behaviour string)
// identifies in turn. The raw interleaving hash over-counts — it also
// distinguishes when the blocked main thread got rescheduled around its
// joins — so classes must merge it down to the ground truth.
func TestBitshiftGroundTruth(t *testing.T) {
	tgt, ok := ByName("Fig1/bitshift_3")
	if !ok {
		t.Fatal("Fig1/bitshift_3 not resolvable")
	}
	res, err := runner.RunTarget(tgt, "RW", runner.Config{
		Sessions: 1, Limit: 400, Seed: 7, Coverage: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Sessions[0].Cov
	if cov == nil {
		t.Fatal("no coverage recorded")
	}
	if len(cov.Behaviors) != len(cov.Classes) {
		t.Fatalf("behaviours %d != classes %d: final x must identify the class",
			len(cov.Behaviors), len(cov.Classes))
	}
	if len(cov.Classes) != 20 {
		t.Fatalf("saw %d classes, want all C(6,3)=20 in 400 schedules", len(cov.Classes))
	}
	if len(cov.Interleavings) < len(cov.Classes) {
		t.Fatalf("interleavings %d < classes %d: a class cannot split interleavings",
			len(cov.Interleavings), len(cov.Classes))
	}
	total := 0
	for _, n := range cov.Classes {
		total += n
	}
	if cov.DupSchedules != total-20 {
		t.Fatalf("DupSchedules = %d over %d schedules, want %d", cov.DupSchedules, total, total-20)
	}
	if res.FoundEver() {
		t.Fatal("coverage probe reported a bug")
	}
}

func TestBitshiftInfoMatchesProgram(t *testing.T) {
	// The hand-built profile must agree with an actual census.
	info := BitshiftInfo(4)
	if info.TotalEvents != 10 || info.NumThreads() != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Events[info.LID("0.0")] != 4 {
		t.Fatal("worker count wrong")
	}
}
