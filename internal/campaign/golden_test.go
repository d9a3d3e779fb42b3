package campaign_test

import (
	"bytes"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/obs/promtest"
	"surw/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the renderers write now")

// golden compares got with testdata/name byte for byte. The files were
// written by the hand-formatted renderers obs.Prom replaced, so a
// difference is a change to a page or payload that scrapers and dashboards
// already parse.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: the renderer wrote nothing", name)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of page>"
	}
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if g, w := line(gl, i), line(wl, i); g != w {
			t.Fatalf("%s line %d differs from the golden file\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// goldenRemote is a literal fleet view: two workers, a latency family
// with and without explicit buckets, and a health report with every rule
// tripped.
func goldenRemote() *campaign.RemoteStatus {
	return &campaign.RemoteStatus{
		SessionsPlanned: 40, SessionsDone: 17, InFlightLeases: 2, PendingBatches: 9,
		LeaseExpiries: 1, DuplicateResults: 3,
		Workers: []campaign.RemoteWorker{
			{Name: "alpha", Sessions: 11, BusySeconds: 12.3456, Utilization: 0.98765, Leases: 1, SecondsSinceSeen: 0.2},
			{Name: "host-2:worker/b", Sessions: 6, BusySeconds: 0, Utilization: 0, Leases: 1, SecondsSinceSeen: 31},
		},
		Latencies: []obs.LatencySnap{
			{Op: "lease_rpc", Count: 4, SumSeconds: 0.00037, P50: 6.5535e-05, P95: 0.000131071, P99: 0.000131071,
				Buckets: []obs.LatencyBucket{{LE: 6.5535e-05, CumCount: 3}, {LE: 0.000131071, CumCount: 4}}},
			{Op: "session", Count: 2, SumSeconds: 3.5, P50: 2.147483647, P95: math.Inf(1), P99: math.Inf(1),
				Buckets: []obs.LatencyBucket{{LE: 2.147483647, CumCount: 1}, {LE: math.Inf(1), CumCount: 2}}},
		},
		Health: &campaign.HealthReport{
			StaleWorkers: 1, AgingLeases: 1,
			Issues: []campaign.HealthIssue{
				{Kind: campaign.HealthStaleWorker, Subject: "host-2:worker/b", Detail: "no request for 31s (deadline 30s)"},
				{Kind: campaign.HealthAgingLease, Subject: "L7", Detail: "outstanding 95s, TTL 30s"},
			},
		},
	}
}

func TestRemoteStatusPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRemote().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "remote_status.golden", buf.Bytes())
	if err := promtest.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("golden page does not lint: %v", err)
	}
}

// goldenStore fills a store with literal records: a cell with commutation
// classes (the dedup path), one with interleavings only, and one with no
// class stream at all.
func goldenStore(t *testing.T) *campaign.Store {
	t.Helper()
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	put := func(target, alg string, session int, cov bool, s *runner.Session) {
		k := runner.SessionKey{CellKey: runner.CellKey{Target: target, Algorithm: alg, Limit: 200, Seed: 7, StopAtFirstBug: true, Coverage: cov}, Session: session}
		if cov {
			k.CoverageEvery = 5
		}
		if _, err := st.Store(k, s); err != nil {
			t.Fatal(err)
		}
	}
	bug := map[string]int{"assert:reorder": 1}
	put("A", "SURW", 0, true, &runner.Session{FirstBug: 12, Schedules: 12, Bugs: bug, Cov: &runner.Coverage{
		Interleavings: map[uint64]int{1: 5, 2: 4, 3: 3}, Classes: map[uint64]int{10: 8, 11: 4}, DupSchedules: 10}})
	put("A", "SURW", 1, true, &runner.Session{FirstBug: -1, Schedules: 200, Bugs: map[string]int{}, Cov: &runner.Coverage{
		Interleavings: map[uint64]int{1: 90, 4: 60, 5: 49, 6: 1}, Classes: map[uint64]int{10: 150, 12: 49, 13: 1}, DupSchedules: 197}})
	put("A", "SURW", 2, true, &runner.Session{FirstBug: 180, Schedules: 180, Bugs: bug, Cov: &runner.Coverage{
		Interleavings: map[uint64]int{1: 100, 7: 79, 8: 1}, Classes: map[uint64]int{10: 100, 12: 79, 14: 1}, DupSchedules: 177}})
	put("A", "RW", 0, true, &runner.Session{FirstBug: 3, Schedules: 3, Bugs: bug, Cov: &runner.Coverage{
		Interleavings: map[uint64]int{1: 2, 2: 1}}})
	put("A", "RW", 1, true, &runner.Session{FirstBug: 150, Schedules: 150, Bugs: bug, Cov: &runner.Coverage{
		Interleavings: map[uint64]int{1: 70, 2: 50, 3: 29, 9: 1}}})
	put("B", "URW", 0, false, &runner.Session{FirstBug: -1, Schedules: 200, Bugs: map[string]int{}})
	return st
}

// goldenAtlas is a literal atlas.json of three cells.
func goldenAtlas() *atlas.Snapshot {
	return &atlas.Snapshot{Version: atlas.Version, Cells: []atlas.CellSnapshot{
		{Target: "A", Algorithm: "RW", Schedules: 384, Decisions: 384, MaxDepth: 1},
		{Target: "A", Algorithm: "SURW", Schedules: 320, Decisions: 640, MaxDepth: 5},
		{Target: "B", Algorithm: "URW", Schedules: 7, Decisions: 21, MaxDepth: 3},
	}}
}

// TestServerGoldenPages holds the dashboard's machine-read surfaces over a
// fixed store, atlas and fleet view: the Prometheus page and the campaign
// rollup. The fleet view drops goldenRemote's
// +Inf latency: JSON has no infinity, and /api/campaign carries the view.
func TestServerGoldenPages(t *testing.T) {
	s := campaign.NewServer(goldenStore(t), nil)
	s.SetAtlas(func() (*atlas.Snapshot, error) { return goldenAtlas(), nil })
	rs := goldenRemote()
	rs.Latencies = rs.Latencies[:1]
	s.SetRemote(func() (*campaign.RemoteStatus, error) { return rs, nil })
	srv := httptest.NewServer(s)
	defer srv.Close()

	metrics := get(t, srv.URL+"/metrics")
	golden(t, "server_metrics.golden", []byte(metrics))
	if err := promtest.Lint(bytes.NewReader([]byte(metrics))); err != nil {
		t.Fatalf("golden page does not lint: %v", err)
	}
	golden(t, "server_api_campaign.golden", []byte(get(t, srv.URL+"/api/campaign")))
}

// An atlas with no cell yet declares no atlas family: a HELP/TYPE header
// with no sample under it is the one byte difference from the golden
// pages' renderers that no golden page can show.
func TestServerMetricsOmitEmptyAtlasFamilies(t *testing.T) {
	s := campaign.NewServer(goldenStore(t), nil)
	s.SetAtlas(func() (*atlas.Snapshot, error) { return &atlas.Snapshot{Version: atlas.Version}, nil })
	srv := httptest.NewServer(s)
	defer srv.Close()
	page := get(t, srv.URL+"/metrics")
	if strings.Contains(page, "surw_atlas_") {
		t.Errorf("an atlas without cells declared a family:\n%s", page)
	}
	if err := promtest.Lint(strings.NewReader(page)); err != nil {
		t.Fatal(err)
	}
}
