package campaign_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// TestYieldsFromCampaign scores the standard two-cell campaign: both
// cells ran with coverage on, so both must be scoreable with components
// in range.
func TestYieldsFromCampaign(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 3, 1)

	yields := st.Aggregate().Yields()
	if len(yields) != 2 {
		t.Fatalf("got %d yield rows, want 2", len(yields))
	}
	for _, y := range yields {
		if !y.Scoreable {
			t.Fatalf("%s/%s: coverage cell not scoreable: %+v", y.Target, y.Algorithm, y)
		}
		if y.Samples <= 0 || y.SessionsStored != 3 {
			t.Fatalf("%s/%s: samples/sessions wrong: %+v", y.Target, y.Algorithm, y)
		}
		v := y.Yield
		if v.Score < 0 || v.Score > 1 || v.GTUnseen < 0 || v.GTUnseen > 1 ||
			v.SurvivalSlope < 0 || v.SurvivalSlope > 1 || v.NewClassRate < 0 || v.NewClassRate > 1 {
			t.Fatalf("%s/%s: component out of range: %+v", y.Target, y.Algorithm, v)
		}
	}
}

// TestYieldsDegenerateCells pins the unscoreable paths: a cell with zero
// stored sessions, and a cell whose sessions recorded no class stream,
// both come back Scoreable=false with a zero Yield — never NaN.
func TestYieldsDegenerateCells(t *testing.T) {
	agg := &campaign.Aggregates{Cells: []campaign.CellAggregate{
		{CellKey: campaign.CellKey{Target: "t", Algorithm: "empty"}},
		{CellKey: campaign.CellKey{Target: "t", Algorithm: "nocov"}, SessionsStored: 2,
			Survival: []campaign.SurvivalPoint{{Schedules: 0, Surviving: 1}, {Schedules: 50, Surviving: 0.5}}},
	}}
	for _, y := range agg.Yields() {
		if y.Scoreable {
			t.Fatalf("%s: degenerate cell scored: %+v", y.Algorithm, y)
		}
		if y.Yield != (campaign.Yield{}) {
			t.Fatalf("%s: unscoreable cell carries a nonzero yield: %+v", y.Algorithm, y.Yield)
		}
	}
}

// The three signals and their blend, over the curve types the aggregates
// carry.
func TestYieldComponents(t *testing.T) {
	curve := []campaign.SurvivalPoint{{Schedules: 0, Surviving: 1}, {Schedules: 50, Surviving: 0.9}, {Schedules: 100, Surviving: 0.4}}
	if d := campaign.LateSurvivalDrop(curve); d != 0.5 {
		t.Fatalf("late drop = %v, want 0.5", d)
	}
	if d := campaign.LateSurvivalDrop(nil); d != 0 {
		t.Fatalf("empty curve drop = %v, want 0", d)
	}
	if r := campaign.RecentNewRate([]campaign.AccumPoint{{Session: 1, Distinct: 10}, {Session: 2, Distinct: 10}}); r != 0 {
		t.Fatalf("dried-up growth rate = %v, want 0", r)
	}
	if r := campaign.RecentNewRate([]campaign.AccumPoint{{Session: 1, Distinct: 10}}); r != 1 {
		t.Fatalf("single-point growth rate = %v, want 1 (no evidence)", r)
	}
	if r := campaign.RecentNewRate(nil); r != 1 {
		t.Fatalf("no-curve growth rate = %v, want 1", r)
	}
	// Unseen mass weighs 0.5, the trend 0.25; a negative slope clamps to 0.
	if s := campaign.ScoreYield(2, -1, 0.5); s != 0.5*1+0.25*0.5 {
		t.Fatalf("score clamping wrong: %v", s)
	}
	nan := math.NaN()
	if s := campaign.ScoreYield(nan, nan, nan); s != 0 {
		t.Fatalf("NaN components must score 0, got %v", s)
	}
}

// atlasServer builds a server over a real campaign with a synthetic-but-
// live atlas registry attached: one uniform cell and one heavily biased
// cell whose drift alarm has tripped.
func atlasServer(t *testing.T) (*campaign.Store, *httptest.Server) {
	t.Helper()
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	campaignCells(t, st, 2, 1)
	// A third cell without coverage: sessions stored, but no class stream,
	// so its yield row must render as "—" across the board.
	tgt, _ := sctbench.ByName("CS/reorder_4")
	if _, err := runner.RunTarget(tgt, "URW", runner.Config{
		Sessions: 1, Limit: 50, Seed: 11, Workers: 1, Store: st,
	}); err != nil {
		t.Fatal(err)
	}

	reg := atlas.New()
	good := reg.Cell("CS/reorder_4", "SURW")
	var acc atlas.Accum
	for i := 0; i < 320; i++ {
		acc.BeginSchedule()
		acc.Decision(1, 3, uint64(i))
		acc.Decision(5, 2, uint64(i*7))
		good.ObserveSchedule(uint64(i % 5)) // uniform over 5 classes
	}
	acc.DrainInto(good)
	bad := reg.Cell("CS/reorder_4", "RW")
	var bacc atlas.Accum
	for i := 0; i < 384; i++ {
		bacc.BeginSchedule()
		bacc.Decision(1, 2, uint64(i))
		class := uint64(0)
		if i%38 == 0 {
			class = 1 // ~10 of 384 samples in the minority class
		}
		bad.ObserveSchedule(class)
	}
	bacc.DrainInto(bad)

	s := campaign.NewServer(st, nil)
	s.SetAtlas(func() (*atlas.Snapshot, error) { return reg.Snapshot(), nil })
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); st.Close() })
	return st, srv
}

// TestServerYieldAndAtlasPanels drives the dashboard end to end: the
// yield table with its degenerate "—" row, the atlas heatmap and depth
// profile, the uniformity gauges with the biased cell's DRIFT badge, and
// the guarantee that nothing anywhere renders as NaN.
func TestServerYieldAndAtlasPanels(t *testing.T) {
	_, srv := atlasServer(t)

	page := get(t, srv.URL+"/")
	for _, want := range []string{
		"discovery yield",
		"exploration atlas",
		"atlas-heatmap",
		"atlas-depth",
		"uniformity p",
		"DRIFT",
		"—", // the coverage-less URW cell's yield row
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "NaN") {
		t.Error("dashboard rendered a NaN")
	}

	var rep campaign.YieldReport
	resp, err := http.Get(srv.URL + "/api/yield")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("/api/yield has %d cells, want 3", len(rep.Cells))
	}
	byAlg := make(map[string]campaign.YieldCell)
	for _, c := range rep.Cells {
		byAlg[c.Algorithm] = c
	}
	if !byAlg["SURW"].Scoreable || !byAlg["RW"].Scoreable {
		t.Fatalf("coverage cells unscoreable: %+v", rep.Cells)
	}
	if byAlg["URW"].Scoreable {
		t.Fatalf("coverage-less cell scored: %+v", byAlg["URW"])
	}
	if u := byAlg["SURW"].Uniformity; u == nil || u.Alarm || u.Samples != 320 {
		t.Fatalf("SURW uniformity wrong: %+v", u)
	}
	if u := byAlg["RW"].Uniformity; u == nil || !u.Alarm {
		t.Fatalf("biased RW cell did not alarm: %+v", u)
	}
}

// TestServerAtlasMetrics holds the /metrics contract: surw_yield_* and
// surw_atlas_* families appear with an atlas attached, the biased cell
// exports drift_alarm 1, and the whole page still lints.
func TestServerAtlasMetrics(t *testing.T) {
	_, srv := atlasServer(t)
	page := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"surw_yield_score{target=\"CS/reorder_4\",algorithm=\"SURW\"}",
		"surw_yield_gt_unseen{target=\"CS/reorder_4\",algorithm=\"RW\"}",
		"surw_atlas_schedules{target=\"CS/reorder_4\",algorithm=\"SURW\"} 320",
		"surw_atlas_decisions{target=\"CS/reorder_4\",algorithm=\"SURW\"} 640",
		"surw_atlas_uniformity_p{target=\"CS/reorder_4\",algorithm=\"SURW\"}",
		"surw_atlas_drift_alarm{target=\"CS/reorder_4\",algorithm=\"RW\"} 1",
		"surw_atlas_drift_alarm{target=\"CS/reorder_4\",algorithm=\"SURW\"} 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	// The coverage-less URW cell must not export a fake yield score.
	if strings.Contains(page, "surw_yield_score{target=\"CS/reorder_4\",algorithm=\"URW\"}") {
		t.Error("unscoreable cell exported a yield score")
	}
	if err := obs.LintPrometheus(strings.NewReader(page)); err != nil {
		t.Fatalf("atlas metrics page does not lint: %v", err)
	}
}

// TestServerFleetMedianGuard pins the health-panel degenerate guard: a
// zero fleet median renders as "—", a real one as a number.
func TestServerFleetMedianGuard(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 1, 1)
	rs := &campaign.RemoteStatus{Health: &campaign.HealthReport{Healthy: true}}
	s := campaign.NewServer(st, nil)
	s.SetRemote(func() (*campaign.RemoteStatus, error) { return rs, nil })
	srv := httptest.NewServer(s)
	defer srv.Close()

	if page := get(t, srv.URL+"/"); !strings.Contains(page, "median —") {
		t.Error("zero fleet median not rendered as —")
	}
	rs.Health.FleetMedianSchedulesPerSec = 1200
	if page := get(t, srv.URL+"/"); !strings.Contains(page, "median 1200 schedules/s") {
		t.Error("nonzero fleet median not rendered")
	}
}
