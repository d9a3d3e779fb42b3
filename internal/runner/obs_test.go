package runner_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surw/internal/obs"
	"surw/internal/replay"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// TestMetricsAttachmentIsObservationOnly holds the layer's core promise at
// the runner level: a batch with Metrics and FlightDir attached produces a
// Result byte-identical to the plain batch.
func TestMetricsAttachmentIsObservationOnly(t *testing.T) {
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
		cfg.Metrics = obs.NewMetrics()
		cfg.FlightDir = t.TempDir()
		cfg.Workers = 2
		observed, err := runner.RunTarget(tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Equal(observed) {
			t.Fatalf("%s: attaching metrics+flight changed the result", alg)
		}
		s := cfg.Metrics.Snapshot()
		if s.Schedules == 0 || s.Steps == 0 {
			t.Fatalf("%s: metrics saw nothing: %+v", alg, s)
		}
		if alg != "RW" && len(s.Algorithms) == 0 {
			t.Fatalf("%s: no per-algorithm histograms", alg)
		}
		if s.Utilization <= 0 || s.Utilization > 1.0001 {
			t.Fatalf("%s: utilization %v out of range", alg, s.Utilization)
		}
	}
}

// TestWorkerBusyIsTheSessionHistogram: a RunCells pool's busy time and item
// count are the "session" latency histogram's sum and count, one timing of
// each session, at one worker and at two.
func TestWorkerBusyIsTheSessionHistogram(t *testing.T) {
	var cells []runner.Cell
	for _, name := range []string{"CS/reorder_4", "CS/twostage"} {
		tgt, ok := sctbench.ByName(name)
		if !ok {
			t.Fatalf("missing target %s", name)
		}
		cells = append(cells, runner.Cell{Target: tgt, Alg: "SURW", Config: runner.Config{Sessions: 3, Limit: 100, Seed: 5}})
	}
	for _, workers := range []int{1, 2} {
		m := obs.NewMetrics()
		for i := range cells {
			cells[i].Config.Metrics, cells[i].Config.Workers = m, workers
		}
		if _, err := runner.RunCells(context.Background(), cells, nil); err != nil {
			t.Fatal(err)
		}
		s, h := m.Snapshot(), m.Latency("session").Wire()
		if s.WorkerItems != 6 || uint64(s.WorkerItems) != h.Count {
			t.Fatalf("workers=%d: WorkerItems %d, session histogram count %d, want 6", workers, s.WorkerItems, h.Count)
		}
		if int64(s.WorkerBusy) != h.SumNanos || s.WorkerBusy <= 0 {
			t.Fatalf("workers=%d: WorkerBusy %v, session histogram sum %v", workers, s.WorkerBusy, time.Duration(h.SumNanos))
		}
		if s.Utilization <= 0 || s.Utilization > 1.0001 {
			t.Fatalf("workers=%d: utilization %v out of range", workers, s.Utilization)
		}
	}
}

// TestFlightRecorderEndToEnd drives the full loop the ci.sh smoke stage
// scripts: run a failing SCTBench target with the flight recorder on, load
// the dump, replay its recording through internal/replay, and demand the
// same bug with the same interleaving fingerprint.
func TestFlightRecorderEndToEnd(t *testing.T) {
	tgt, ok := sctbench.ByName("CS/reorder_4")
	if !ok {
		t.Fatal("missing target")
	}
	dir := t.TempDir()
	res, err := runner.RunTarget(tgt, "SURW", runner.Config{
		Sessions: 2, Limit: 2000, Seed: 1, StopAtFirstBug: true, FlightDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, found := res.FirstBugSummary(); found != len(res.Sessions) {
		t.Fatal("SURW did not find the reorder bug; flight recorder untestable")
	}
	for i, sess := range res.Sessions {
		if sess.Flight == "" {
			t.Fatalf("session %d found a bug but dumped no flight", i)
		}
		fr, err := obs.ReadFlight(sess.Flight)
		if err != nil {
			t.Fatal(err)
		}
		if !fr.Reproduced {
			t.Fatalf("session %d: capture re-run did not reproduce", i)
		}
		if fr.Session != i || fr.BugID != "reorder" {
			t.Fatalf("session %d: flight coordinates %+v", i, fr)
		}
		if len(fr.LastDecisions) == 0 || fr.Delta == "" {
			t.Fatalf("session %d: missing decisions or Δ description", i)
		}
		last := fr.LastDecisions[len(fr.LastDecisions)-1]
		if !strings.Contains(last.Annot, "intended=") {
			t.Fatalf("session %d: SURW annotation missing from decisions: %+v", i, last)
		}

		rec, err := replay.Parse(fr.Recording)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := replay.ReplayStrict(tgt.Prog, rec, sched.Options{Base: sched.Base{ProgSeed: fr.ProgSeed, MaxSteps: fr.MaxSteps}, TraceFilter: tgt.TraceFilter})
		if err != nil {
			t.Fatalf("session %d: replay diverged: %v", i, err)
		}
		if rp.BugID() != fr.BugID {
			t.Fatalf("session %d: replay bug %q, want %q", i, rp.BugID(), fr.BugID)
		}
		if got := hexHash(rp.InterleavingHash); got != fr.Fingerprint {
			t.Fatalf("session %d: replay fingerprint %s, want %s", i, got, fr.Fingerprint)
		}
		// Regression: flight records must carry the commutation-class
		// fingerprint alongside the order-sensitive one, and a bit-exact
		// replay must land in the recorded class.
		if fr.ClassFingerprint == "" {
			t.Fatalf("session %d: flight record missing class fingerprint", i)
		}
		if got := hexHash(rp.ClassHash); got != fr.ClassFingerprint {
			t.Fatalf("session %d: replay class fingerprint %s, want %s", i, got, fr.ClassFingerprint)
		}
	}
	// Dumps land under the directory with sanitized names.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(res.Sessions) {
		t.Fatalf("%d dumps for %d sessions", len(ents), len(res.Sessions))
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "flight_CS_reorder_4_") ||
			filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("unexpected dump name %q", e.Name())
		}
	}
}

func hexHash(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// TestFlightDisabledWritesNothing guards the default path: without
// FlightDir no files appear and Session.Flight stays empty.
func TestFlightDisabledWritesNothing(t *testing.T) {
	tgt, _ := sctbench.ByName("CS/reorder_4")
	res, err := runner.RunTarget(tgt, "RW", runner.Config{Sessions: 1, Limit: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sessions {
		if s.Flight != "" {
			t.Fatalf("flight %q dumped without FlightDir", s.Flight)
		}
	}
}
