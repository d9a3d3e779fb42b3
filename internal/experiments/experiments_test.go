package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"surw/internal/campaign"
	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/stats"
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
	sc := tinyScale()
	sc.Workers = 2
	f := Figure2(sc, nil)
	if f.Classes != 252 || f.Trials != sc.Fig2Trials || len(f.ChiSquare["URW"]) != Fig2Sessions {
		t.Fatalf("classes = %d, trials = %d, %d URW sessions", f.Classes, f.Trials, len(f.ChiSquare["URW"]))
	}
	// Every session of a baseline is further from uniform than every URW one.
	urw := slices.Max(f.ChiSquare["URW"])
	for _, alg := range []string{"RW", "PCT-10"} {
		if base := slices.Min(f.ChiSquare[alg]); urw >= base {
			t.Fatalf("URW chi2 up to %.0f should be far below %s's from %.0f", urw, alg, base)
		}
		if f.KSP[alg] > 1e-3 {
			t.Fatalf("%s's session p-values pass for uniform: KS p = %g", alg, f.KSP[alg])
		}
	}
	if len(f.Histograms["URW"]) < len(f.Histograms["PCT-10"]) {
		t.Fatalf("URW distinct %d < PCT-10 %d", len(f.Histograms["URW"]), len(f.Histograms["PCT-10"]))
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
	// The printed total row is Totals, column by column.
	_, row, _ := strings.Cut(out, "Total (max 1500)")
	row, _, _ = strings.Cut(row, "\n")
	want := make([]string, len(RBAlgorithms))
	for i, alg := range RBAlgorithms {
		want[i] = strconv.Itoa(totals[alg])
	}
	if got := strings.Fields(row); !slices.Equal(got, want) {
		t.Fatalf("table 2 prints totals %v, want Totals %v", got, want)
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
	// The case study's headline, read from what Table 3 and Figure 5
	// print: SURW explores both interleavings and behaviours more than
	// PCT-3 (it holds at generator seeds 1–6 at this scale).
	mean := func(xs []float64) float64 { return stats.Summarize(xs).Mean }
	sIlv, sBeh := r.entropies("SURW")
	pIlv, pBeh := r.entropies("PCT-3")
	if mean(sIlv) <= mean(pIlv) {
		t.Fatalf("interleaving entropy: SURW %.2f <= PCT-3 %.2f", mean(sIlv), mean(pIlv))
	}
	if mean(sBeh) <= mean(pBeh) {
		t.Fatalf("behaviour entropy: SURW %.2f <= PCT-3 %.2f", mean(sBeh), mean(pBeh))
	}
	_, sCov, _ := r.covCurve("SURW")
	_, pCov, _ := r.covCurve("PCT-3")
	if sCov[len(sCov)-1] <= pCov[len(pCov)-1] {
		t.Fatalf("interleaving coverage: SURW %.0f <= PCT-3 %.0f", sCov[len(sCov)-1], pCov[len(pCov)-1])
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

// TestBestAlgorithmTieKeepsColumnOrder: two algorithms tie at the minimum
// mean — one found the bug late in every session, the other early in all
// but one, whose unfinished session sets its mean to the limit — and the
// log-rank test separates them, so the one ranked first is reported. A tie
// ranks in the table's column order, either way round.
func TestBestAlgorithmTieKeepsColumnOrder(t *testing.T) {
	late, early := &runner.Result{Limit: 100}, &runner.Result{Limit: 100}
	for i := 0; i < 10; i++ {
		late.Sessions = append(late.Sessions, runner.Session{FirstBug: 100})
		early.Sessions = append(early.Sessions, runner.Session{FirstBug: 1})
	}
	early.Sessions[9].FirstBug = -1
	for _, algs := range [][]string{{"late", "early"}, {"early", "late"}} {
		r := &SCTResult{Algs: algs, Results: map[string]map[string]*runner.Result{
			"T": {"late": late, "early": early},
		}}
		if got := r.bestAlgorithm("T"); got != algs[0] {
			t.Errorf("columns %v: best %q, want the first column of the tie, %q", algs, got, algs[0])
		}
	}
}
