package campaign_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/obs/promtest"
)

func testServer(t *testing.T) (*campaign.Store, *httptest.Server) {
	t.Helper()
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	campaignCells(t, st, 2, 1)
	srv := httptest.NewServer(campaign.NewServer(st, obs.NewMetrics()))
	t.Cleanup(func() { srv.Close(); st.Close() })
	return st, srv
}

func TestServerAPICampaign(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/api/campaign")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var agg campaign.Aggregates
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Sessions != 4 || len(agg.Cells) != 2 {
		t.Fatalf("api reports %d sessions / %d cells, want 4 / 2", agg.Sessions, len(agg.Cells))
	}
	if agg.Metrics == nil {
		t.Fatal("live server omitted the metrics snapshot")
	}
}

func TestServerMetricsPage(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	var body strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	page := body.String()
	for _, want := range []string{
		"surw_campaign_sessions_stored 4",
		"surw_campaign_cells_total 2",
		"surw_schedules_total",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

func TestServerEventsSSE(t *testing.T) {
	st, srv := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	readEvent := func() (string, campaign.Event) {
		t.Helper()
		var typ string
		var ev campaign.Event
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("sse read: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatalf("sse data: %v", err)
				}
			case line == "" && typ != "":
				return typ, ev
			}
		}
	}

	typ, ev := readEvent()
	if typ != "snapshot" || ev.Stored != 4 || ev.Cells != 2 {
		t.Fatalf("first event = %s %+v, want snapshot with 4 stored / 2 cells", typ, ev)
	}
	// A live append must stream through.
	go func() {
		if _, err := st.Store(key(90), session(3)); err != nil {
			t.Error(err)
		}
	}()
	typ, ev = readEvent()
	if typ != "session" || ev.Session != 90 || ev.Stored != 5 {
		t.Fatalf("second event = %s %+v, want the appended session", typ, ev)
	}
}

// A dashboard client that disconnects must have its event subscription
// reclaimed, and a fresh client must get a fresh snapshot — the
// disconnect/reconnect cycle every browser tab exercises.
func TestServerEventsDisconnectReconnect(t *testing.T) {
	st, srv := testServer(t)
	broker := st.Events()

	waitSubs := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for broker.Subscribers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("subscribers = %d, want %d", broker.Subscribers(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	connect := func(ctx context.Context) (*http.Response, *bufio.Reader) {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, bufio.NewReader(resp.Body)
	}
	readSnapshot := func(r *bufio.Reader) campaign.Event {
		t.Helper()
		var ev campaign.Event
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("sse read: %v", err)
			}
			if strings.HasPrefix(line, "data: ") {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
					t.Fatal(err)
				}
				return ev
			}
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	resp1, r1 := connect(ctx1)
	if ev := readSnapshot(r1); ev.Stored != 4 {
		t.Fatalf("first snapshot: %+v", ev)
	}
	waitSubs(1)

	// Drop the client mid-stream: the handler must notice and unsubscribe.
	cancel1()
	resp1.Body.Close()
	waitSubs(0)

	// The store keeps moving while nobody is watching.
	if _, err := st.Store(key(91), session(3)); err != nil {
		t.Fatal(err)
	}

	// A reconnecting client starts from a snapshot that includes what it
	// missed, then streams live events again.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	resp2, r2 := connect(ctx2)
	defer resp2.Body.Close()
	if ev := readSnapshot(r2); ev.Stored != 5 {
		t.Fatalf("reconnect snapshot: %+v, want the appended session counted", ev)
	}
	go func() {
		if _, err := st.Store(key(92), session(3)); err != nil {
			t.Error(err)
		}
	}()
	if ev := readSnapshot(r2); ev.Session != 92 {
		t.Fatalf("post-reconnect event: %+v, want session 92", ev)
	}
}

// An unreachable coordinator surfaces as an error banner and as
// remote_error in the API — never as a silently empty fleet view — and
// the metrics page stays parseable.
func TestServerRemoteErrorSurfaces(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 1, 1)
	s := campaign.NewServer(st, nil)
	s.SetRemote(func() (*campaign.RemoteStatus, error) {
		return nil, fmt.Errorf("fetch http://coordinator:7071/v1/status: connection refused")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var agg campaign.Aggregates
	resp, err := http.Get(srv.URL + "/api/campaign")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if agg.Remote != nil {
		t.Fatal("failed fetch still produced a remote view")
	}
	if !strings.Contains(agg.RemoteErr, "connection refused") {
		t.Fatalf("remote_error = %q", agg.RemoteErr)
	}

	page := get(t, srv.URL+"/")
	if !strings.Contains(page, "remote status unavailable") || !strings.Contains(page, "connection refused") {
		t.Fatalf("dashboard hides the remote error:\n%s", page)
	}

	metrics := get(t, srv.URL+"/metrics")
	if err := promtest.Lint(strings.NewReader(metrics)); err != nil {
		t.Fatalf("metrics page with failing remote does not lint: %v", err)
	}
}

// The health panel and latency table render from a remote status, and the
// full metrics page — campaign counters, obs aggregate, remote gauges,
// fleet latency histograms, health gauges — passes the Prometheus lint.
func TestServerHealthPanelAndMetricsLint(t *testing.T) {
	_, srv := testServer(t)
	page := get(t, srv.URL+"/metrics")
	if err := promtest.Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("base metrics page does not lint: %v", err)
	}

	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 1, 1)
	var lat obs.LatencySet
	lat.Observe("session", 40*time.Millisecond)
	lat.Observe("lease_rpc", 2*time.Millisecond)
	rs := &campaign.RemoteStatus{
		SessionsPlanned: 8, SessionsDone: 4,
		Latencies: lat.Snapshots(),
		Health: &campaign.HealthReport{
			StaleWorkers: 1,
			Issues: []campaign.HealthIssue{{
				Kind: campaign.HealthStaleWorker, Subject: "w-lost",
				Detail: "no request for 4m0s",
			}},
		},
	}
	s := campaign.NewServer(st, nil)
	s.SetRemote(func() (*campaign.RemoteStatus, error) { return rs, nil })
	srv2 := httptest.NewServer(s)
	defer srv2.Close()

	html := get(t, srv2.URL+"/")
	for _, want := range []string{"stale workers", "w-lost", "p95", "lease_rpc"} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	metrics := get(t, srv2.URL+"/metrics")
	for _, want := range []string{"surw_health_ok 0", "surw_fleet_latency_seconds_bucket"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if err := promtest.Lint(strings.NewReader(metrics)); err != nil {
		t.Fatalf("remote metrics page does not lint: %v", err)
	}

	// A healthy fleet renders the quiet banner.
	rs.Health = &campaign.HealthReport{Healthy: true}
	if html := get(t, srv2.URL+"/"); !strings.Contains(html, "fleet healthy") {
		t.Error("healthy fleet banner missing")
	}
}

// A latency past the histogram's last finite bucket (2^46 ns, 19.5 hours)
// once reached /api/campaign as +Inf percentiles, which encoding/json
// refuses, and the handler dropped the error: an empty 200. The snapshot is
// finite now, and a value that still does not encode is a 500 that says why.
func TestServerAPISurvivesOverflowLatency(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaignCells(t, st, 1, 1)
	var lat obs.LatencySet
	lat.Observe("session", 1<<48)
	rs := &campaign.RemoteStatus{Latencies: lat.Snapshots()}
	s := campaign.NewServer(st, nil)
	s.SetRemote(func() (*campaign.RemoteStatus, error) { return rs, nil })
	srv := httptest.NewServer(s)
	defer srv.Close()

	var page struct {
		Remote struct {
			Latencies []obs.LatencySnap `json:"latencies"`
		} `json:"remote"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/api/campaign")), &page); err != nil {
		t.Fatalf("/api/campaign after a 2^48 ns observation: %v", err)
	}
	if l := page.Remote.Latencies; len(l) != 1 || l[0].Count != 1 || l[0].P99 < 70000 {
		t.Errorf("latencies = %+v, want the one observation with the last finite bound, 70368 s, as its p99", l)
	}
	if err := promtest.Lint(strings.NewReader(get(t, srv.URL+"/metrics"))); err != nil {
		t.Errorf("metrics page with an overflow observation does not lint: %v", err)
	}

	rs.Latencies[0].P99 = math.Inf(1)
	resp, err := http.Get(srv.URL + "/api/campaign")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "unsupported value") {
		t.Errorf("an unencodable page answered %d %q, want 500 with the encoder's error", resp.StatusCode, body)
	}
}

// get fetches a URL's body as a string.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestServerIndexAndBuildinfo(t *testing.T) {
	_, srv := testServer(t)

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	page := body.String()
	for _, want := range []string{"surw campaign", "CS/reorder_4", "<svg", "class=\"line survival\"", "EventSource"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard page missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Version == "" || !strings.HasPrefix(info.Go, "go") {
		t.Fatalf("buildinfo = %+v", info)
	}

	// Unknown paths 404 rather than serving the dashboard.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

// atlasServer builds a server over a real campaign with an atlas attached:
// two cells of synthetic cartography. SURW's 320 schedules each decided
// among 3 threads at depth 1 and among 2 at depth 5; RW's 384 made one
// decision each, between 2.
func atlasServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	campaignCells(t, st, 2, 1)

	snap := &atlas.Snapshot{Version: atlas.Version, Cells: []atlas.CellSnapshot{
		{Target: "CS/reorder_4", Algorithm: "RW", Schedules: 384, Decisions: 384, MaxDepth: 1, Depths: []atlas.DepthProfile{
			{Depth: 1, Decisions: 384, EnabledSum: 768, Branch: []uint64{0, 0, 384}},
		}},
		{Target: "CS/reorder_4", Algorithm: "SURW", Schedules: 320, Decisions: 640, MaxDepth: 5, Depths: []atlas.DepthProfile{
			{Depth: 1, Decisions: 320, EnabledSum: 960, Branch: []uint64{0, 0, 0, 320}},
			{Depth: 5, Decisions: 320, EnabledSum: 640, Branch: []uint64{0, 0, 320}},
		}},
	}}

	s := campaign.NewServer(st, nil)
	s.SetAtlas(func() (*atlas.Snapshot, error) { return snap, nil })
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); st.Close() })
	return srv
}

// TestServerAtlasPanel drives the dashboard's atlas panel end to end: each
// cell's depth profile and counts, nothing rendered as NaN, and no
// uniformity verdict or density grid — the atlas maps the space, it does
// not judge the sampler.
func TestServerAtlasPanel(t *testing.T) {
	srv := atlasServer(t)

	page := get(t, srv.URL+"/")
	for _, want := range []string{
		"exploration atlas",
		"atlas-depth",
		"320 schedules · 640 decisions · depth 5",
		"384 schedules · 384 decisions · depth 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	for _, gone := range []string{"NaN", "uniformity", "DRIFT", "discovery yield", "atlas-heatmap", " bits"} {
		if strings.Contains(page, gone) {
			t.Errorf("dashboard rendered %q", gone)
		}
	}
}

// TestServerAtlasMetrics holds the /metrics contract: the surw_atlas_*
// families carry each cell's counts with an atlas attached, and the whole
// page still lints.
func TestServerAtlasMetrics(t *testing.T) {
	page := get(t, atlasServer(t).URL+"/metrics")
	for _, want := range []string{
		"surw_atlas_schedules{target=\"CS/reorder_4\",algorithm=\"SURW\"} 320",
		"surw_atlas_decisions{target=\"CS/reorder_4\",algorithm=\"SURW\"} 640",
		"surw_atlas_schedules{target=\"CS/reorder_4\",algorithm=\"RW\"} 384",
		"surw_atlas_decisions{target=\"CS/reorder_4\",algorithm=\"RW\"} 384",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if err := promtest.Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("atlas metrics page does not lint: %v", err)
	}
}
