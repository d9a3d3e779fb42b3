package experiments

import (
	"strings"
	"testing"

	"surw/internal/campaign"
	"surw/internal/core"
)

// tinyScale keeps the experiment tests fast; shape assertions that need
// larger budgets live in the per-package tests and the benchmarks.
func tinyScale() Scale {
	return Scale{
		Seed:           3,
		Sessions:       2,
		Limit:          120,
		SafeStackLimit: 120,
		RaceBenchLimit: 120,
		FTPTrials:      2,
		FTPLimit:       150,
		Fig2Trials:     2520,
	}
}

func TestFigure2ShapesAndRender(t *testing.T) {
	// Workers: 2 exercises the parallel grid; results are worker-count
	// independent so the assertions below hold regardless.
	f := Figure2(tinyScale().Fig2Trials, 1, 2)
	if f.Classes != 252 {
		t.Fatalf("classes = %d", f.Classes)
	}
	if f.ChiSquare["URW"] >= f.ChiSquare["RW"] {
		t.Fatalf("URW chi2 %.0f should be far below RW %.0f", f.ChiSquare["URW"], f.ChiSquare["RW"])
	}
	if f.ChiSquare["URW"] >= f.ChiSquare["PCT-10"] {
		t.Fatalf("URW chi2 %.0f should be far below PCT-10 %.0f", f.ChiSquare["URW"], f.ChiSquare["PCT-10"])
	}
	if f.Distinct["URW"] < f.Distinct["PCT-10"] {
		t.Fatalf("URW distinct %d < PCT-10 %d", f.Distinct["URW"], f.Distinct["PCT-10"])
	}
	out := f.Render(true)
	for _, want := range []string{"Figure 2", "URW", "RW", "PCT-10", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// All bitshift outcomes carry k ones and k zeros.
	for beh := range f.Histograms["URW"] {
		if strings.Count(beh, "1") != Fig2K || len(beh) != 2*Fig2K {
			t.Fatalf("malformed behaviour key %q", beh)
		}
	}
}

func TestSCTBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment; run without -short")
	}
	sc := tinyScale()
	r := SCTBench(sc, nil)
	if len(r.Targets) != 38 {
		t.Fatalf("targets = %d", len(r.Targets))
	}
	t1 := r.Table1().String()
	if !strings.Contains(t1, "Total") || !strings.Contains(t1, "SURW") {
		t.Fatalf("table 1 malformed:\n%s", t1)
	}
	t4 := r.Table4().String()
	if !strings.Contains(t4, "CS/reorder_3") || !strings.Contains(t4, "SafeStack") {
		t.Fatalf("table 4 malformed:\n%s", t4)
	}
	// Easy targets must be found even at tiny scale.
	for _, tname := range []string{"CS/lazy01", "CS/deadlock01", "RADBench/bug6"} {
		if !r.Results[tname]["SURW"].FoundEver() {
			t.Fatalf("SURW missed %s even at tiny scale", tname)
		}
	}
	// Unfindable targets must render as "-" everywhere.
	for _, tname := range []string{"Inspect/bbuf", "RADBench/bug5", "ConVul/CVE-2017-15265"} {
		for _, alg := range core.AllNames() {
			if r.Results[tname][alg].FoundEver() {
				t.Fatalf("%s/%s found an unfindable bug", tname, alg)
			}
		}
	}
}

func TestRaceBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment; run without -short")
	}
	sc := tinyScale()
	r := RaceBench(sc, nil)
	if len(r.Bases) != 15 {
		t.Fatalf("bases = %d", len(r.Bases))
	}
	totals := r.Totals()
	if totals["SURW"] == 0 || totals["POS"] == 0 {
		t.Fatalf("no bugs found: %v", totals)
	}
	out := r.Table2().String()
	for _, want := range []string{"cholesky*", "Total (max 1500)", "blackscholes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestLightFTPSmall(t *testing.T) {
	sc := tinyScale()
	r := LightFTP(sc, nil)
	for _, alg := range FTPAlgorithms {
		if len(r.Trials[alg]) != sc.FTPTrials {
			t.Fatalf("%s has %d trials", alg, len(r.Trials[alg]))
		}
	}
	t3 := r.Table3().String()
	if !strings.Contains(t3, "Interleavings") || !strings.Contains(t3, "±") {
		t.Fatalf("table 3 malformed:\n%s", t3)
	}
	f5 := r.Figure5()
	for _, want := range []string{"Figure 5a", "Figure 5b", "SURW"} {
		if !strings.Contains(f5, want) {
			t.Fatalf("figure 5 missing %q:\n%s", want, f5)
		}
	}
}

func TestScalesSane(t *testing.T) {
	d, p := DefaultScale(), PaperScale()
	if d.Limit >= p.Limit || d.Sessions >= p.Sessions {
		t.Fatal("default scale should be smaller than paper scale")
	}
	if p.SafeStackLimit != 1_000_000 || p.RaceBenchLimit != 50_000 {
		t.Fatalf("paper scale wrong: %+v", p)
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

func TestFormatBits(t *testing.T) {
	// 0b1_0101 with k=2 strips to "0101".
	if got := formatBits(0b10101, 2); got != "0101" {
		t.Fatalf("formatBits = %q", got)
	}
}

// TestThroughputFooterRatesWhatRan: the throughput footer is about the
// schedules this run executed. A column whose cells all came from the
// campaign store is left out of it, and a grid that ran nothing — a resumed
// or fleet-drained campaign rendering its tables — has no footer at all,
// where it used to divide the stored schedules by the lookups' wall clock.
func TestThroughputFooterRatesWhatRan(t *testing.T) {
	sc := tinyScale()
	sc.SCTTargets = []string{"CS/reorder_4", "CS/twostage_20"}
	sc.SCTAlgs = []string{"SURW"}
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sc.Store = store
	if footer := SCTBench(sc, nil).ThroughputFooter(); !strings.Contains(footer, "SURW ") {
		t.Fatalf("a fresh grid's footer: %q", footer)
	}
	if footer := SCTBench(sc, nil).ThroughputFooter(); footer != "" {
		t.Fatalf("a grid served from the store rated itself: %q", footer)
	}
	sc.SCTAlgs = []string{"SURW", "RW"}
	if footer := SCTBench(sc, nil).ThroughputFooter(); !strings.Contains(footer, "per cell: RW ") {
		t.Fatalf("the footer of a grid whose SURW column was stored and whose RW column was not: %q", footer)
	}
	// Table 2's grid has the same footer, not one like it.
	sc.RaceBenchLimit = 20
	if footer := RaceBench(sc, nil).ThroughputFooter(); !strings.Contains(footer, "per cell: SURW ") || !strings.Contains(footer, ", RW ") {
		t.Fatalf("a fresh RaceBench grid's footer: %q", footer)
	}
	if footer := RaceBench(sc, nil).ThroughputFooter(); footer != "" {
		t.Fatalf("a RaceBench grid served from the store rated itself: %q", footer)
	}
}
