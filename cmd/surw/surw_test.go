package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"surw/internal/atlas"
	"surw/internal/buildinfo"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/replay"
	"surw/internal/sched"
)

// TestVersionStamp: the Makefile's -ldflags stamp reaches `surw version`
// and every subcommand's -version.
func TestVersionStamp(t *testing.T) {
	for _, args := range [][]string{{"version"}, {"bench", "-version"}, {"dash", "-version"}} {
		stdout, stderr, code := binary(args...)
		if code != 0 || !strings.HasPrefix(stdout, "surw test (") {
			t.Errorf("surw %v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the flags the subcommands declare now")

// TestFlagSurface: every flag of every subcommand, as its -h lists them, is
// a line of testdata/flags.golden, so that a knob added — or one coming
// back — is a diff someone has to approve.
func TestFlagSurface(t *testing.T) {
	listed := regexp.MustCompile(`(?m)^  -(\S+)`)
	var lines []string
	for sub := range subcommands {
		out := run(sub, "-h")
		if out.code != 0 {
			t.Fatalf("surw %s -h: exit %d\n%s", sub, out.code, out.stderr)
		}
		for _, m := range listed.FindAllStringSubmatch(out.stderr, -1) {
			lines = append(lines, sub+" -"+m[1])
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := string(readFile(t, golden)); got != want {
		t.Errorf("the flag surface changed (%d flags, the golden file holds %d); if that is intended, go test ./cmd/surw -run TestFlagSurface -update and commit the diff:\n%s",
			len(lines), strings.Count(want, "\n"), got)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if out := run("nosuch"); out.code != 2 || !strings.Contains(out.stderr, `unknown subcommand "nosuch"`) {
		t.Errorf("exit %d, stderr %q", out.code, out.stderr)
	}
	if out := run("run", "-target", "nosuch"); out.code != 2 || !strings.Contains(out.stderr, "surw run: unknown target") {
		t.Errorf("exit %d, stderr %q", out.code, out.stderr)
	}
}

// TestUnknownSCTTarget: a -sct-targets name the sct experiment does not
// know is a usage error that names it, raised before any work — not a
// silently narrower (or empty) grid.
func TestUnknownSCTTarget(t *testing.T) {
	for _, list := range []string{"Nope", "CS/reorder_4,Nope", "RaceBench/x264"} {
		dir := filepath.Join(t.TempDir(), "store")
		out := run("bench", "-campaign", dir, "-sct-targets", list, "-q", "sct")
		bad := list[strings.LastIndex(list, ",")+1:]
		if out.code != 2 || !strings.Contains(out.stderr, strconv.Quote(bad)) || out.stdout != "" {
			t.Errorf("-sct-targets %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", list, out.code, out.stdout, out.stderr, bad)
		}
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("-sct-targets %s: the campaign store was opened before the name was checked", list)
		}
	}
}

// TestTraceExport: `run -trace` writes Chrome trace_event JSON that
// `obs -check-trace` accepts.
func TestTraceExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	mustRun(t, "run", "-target", "Fig1/bitshift_5", "-alg", "URW", "-limit", "50", "-trace", trace)
	mustRun(t, "obs", "-check-trace", trace)
}

// TestFuzzSelfCheck: `fuzz` is the one framework self-check — the
// crosscheck oracle over every grammar — and `run` takes no -crosscheck.
func TestFuzzSelfCheck(t *testing.T) {
	out := mustRun(t, "fuzz", "-seeds", "1")
	wantMatch(t, "fuzz", out.stdout,
		`(?m)^  genwide\(seed=1\) +enumerated`,
		`(?m)^crosscheck: OK — \d+ sampled schedules legal, replayable, and pool/parallel-identical$`)
	if out := run("run", "-crosscheck"); out.code != 2 {
		t.Errorf("run -crosscheck: exit %d, want 2\n%s", out.code, out.stderr)
	}
}

// TestFlightRoundTrip: a flight record dumped at a session's first failure
// validates and replays bit-exactly from the same entry point.
func TestFlightRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "run", "-target", "CS/reorder_4", "-alg", "SURW", "-sessions", "1", "-limit", "2000", "-flight-dir", dir)
	flights, _ := filepath.Glob(filepath.Join(dir, "flight_*.json"))
	if len(flights) != 1 {
		t.Fatalf("flight records under %s: %v, want one", dir, flights)
	}
	mustRun(t, "obs", "-check-flight", flights[0])
	out := mustRun(t, "run", "-replay-flight", flights[0])
	wantMatch(t, "replay", out.stdout, `replayed  bit-exact: bug `)
}

// TestFlightLinesWithCampaign: `run -flight-dir` prints a flight line for
// every flight record it wrote, with a -campaign store attached as without
// one — the store keeps no flight, the run reports its own — and a resumed
// run, which wrote none, prints none.
func TestFlightLinesWithCampaign(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-target", "CS/account", "-alg", "RW", "-sessions", "2", "-limit", "100"}
	flightLines := func(out string) []string { return regexp.MustCompile(`(?m)^flight +(\S+)$`).FindAllString(out, -1) }
	plain := mustRun(t, append(args, "-flight-dir", filepath.Join(dir, "fl1"))...)
	if got := flightLines(plain.stdout); len(got) != 2 {
		t.Fatalf("without a store: %d flight lines, want 2:\n%s", len(got), plain.stdout)
	}
	store := filepath.Join(dir, "st1")
	stored := mustRun(t, append(args, "-flight-dir", filepath.Join(dir, "fl2"), "-campaign", store)...)
	got := flightLines(stored.stdout)
	if len(got) != 2 {
		t.Fatalf("with -campaign: %d flight lines, want 2:\n%s", len(got), stored.stdout)
	}
	for _, line := range got {
		if path := strings.Fields(line)[1]; readFile(t, path) == nil {
			t.Errorf("%s names an empty file", line)
		}
	}
	if bytes.Contains(readFile(t, filepath.Join(store, "runs.jsonl")), []byte("flight")) {
		t.Error("runs.jsonl names a flight record")
	}
	resumed := mustRun(t, append(args, "-flight-dir", filepath.Join(dir, "fl3"), "-campaign", store)...)
	if got := flightLines(resumed.stdout); len(got) != 0 {
		t.Errorf("a resumed run printed %d flight lines, want none:\n%s", len(got), resumed.stdout)
	}
}

// TestRunPrintsBugIDsSorted: `run` lists the distinct bugs it found in
// sorted order, so two identical runs print the same bytes. The six
// sessions find six bugs; printed in map order they would come out in
// another order almost every run.
func TestRunPrintsBugIDsSorted(t *testing.T) {
	out := mustRun(t, "run", "-target", "RaceBench/blackscholes", "-sessions", "6", "-limit", "300")
	var ids []string
	for _, m := range regexp.MustCompile(`(?m)^bug id +(\S+)$`).FindAllStringSubmatch(out.stdout, -1) {
		ids = append(ids, m[1])
	}
	if len(ids) < 2 {
		t.Fatalf("want several bug id lines, got %d:\n%s", len(ids), out.stdout)
	}
	if !slices.IsSorted(ids) {
		t.Errorf("bug ids not sorted: %q", ids)
	}
}

// TestObservedScheduleIsTheReportedOne: the schedule `run -print-failing`
// prints and the one `run -trace` exports are the schedule session 0
// reported — the flight record the same run wrote names the same index,
// choices, bug and interleaving — and both still are when session 0 comes
// back from a -campaign store instead of running.
func TestObservedScheduleIsTheReportedOne(t *testing.T) {
	type traceFile struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
			Args struct {
				Step int `json:"step"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	for _, target := range []string{"CS/reorder_10", "CS/twostage_20"} {
		tgt, _ := experiments.ByName(target)
		for _, seed := range []string{"1", "2", "3"} {
			dir := t.TempDir()
			store, trace := filepath.Join(dir, "store"), filepath.Join(dir, "trace.json")
			args := []string{"run", "-target", target, "-alg", "SURW", "-seed", seed, "-limit", "3000", "-campaign", store, "-print-failing", "-trace", trace}
			first := mustRun(t, append(args, "-flight-dir", dir)...)
			flights, _ := filepath.Glob(filepath.Join(dir, "flight_*.json"))
			if len(flights) != 1 {
				t.Fatalf("%s seed %s: flight records %v, want one", target, seed, flights)
			}
			fr, err := obs.ReadFlight(flights[0])
			if err != nil {
				t.Fatal(err)
			}

			printed := regexp.MustCompile(`failing schedule at seed offset (\d+): .*\nrecording: (.*)\n`).FindStringSubmatch(first.stdout)
			if printed == nil {
				t.Fatalf("%s seed %s: -print-failing printed no schedule:\n%s", target, seed, first.stdout)
			}
			if printed[1] != strconv.Itoa(fr.Schedule) {
				t.Errorf("%s seed %s: -print-failing shows schedule %s, the session reported schedule %d", target, seed, printed[1], fr.Schedule)
			}
			rec, err := replay.Parse(printed[2])
			if err != nil {
				t.Fatal(err)
			}
			res, err := replay.ReplayStrict(tgt.Prog, rec, sched.Options{Base: sched.Base{ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}, TraceFilter: tgt.TraceFilter})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", res.InterleavingHash); res.BugID() != fr.BugID || got != fr.Fingerprint {
				t.Errorf("%s seed %s: the printed schedule reaches bug %q with fingerprint %s, the flight record has %q, %s", target, seed, res.BugID(), got, fr.BugID, fr.Fingerprint)
			}

			var tr traceFile
			exported := readFile(t, trace)
			if err := json.Unmarshal(exported, &tr); err != nil {
				t.Fatal(err)
			}
			decisions := tr.TraceEvents[:0]
			for _, ev := range tr.TraceEvents {
				if ev.Ph == "X" {
					decisions = append(decisions, ev)
				}
			}
			if len(decisions) != fr.Steps {
				t.Errorf("%s seed %s: -trace exported %d decisions, the failing schedule has %d steps", target, seed, len(decisions), fr.Steps)
			} else {
				tail := decisions[len(decisions)-len(fr.LastDecisions):]
				for i, want := range fr.LastDecisions {
					if tail[i].TID != want.TID || tail[i].Args.Step != want.Step {
						t.Errorf("%s seed %s: -trace runs T%d at step %d, the flight record T%d at step %d", target, seed, tail[i].TID, tail[i].Args.Step, want.TID, want.Step)
						break
					}
				}
			}

			// Again over the same store: session 0 is a store hit, nothing
			// re-hunts, and both flags show the same schedule.
			again := mustRun(t, args...)
			wantMatch(t, "second run", again.stdout, `1 sessions stored`)
			if i := strings.Index(first.stdout, "\nfailing schedule"); !strings.HasSuffix(again.stdout, first.stdout[i:]) {
				t.Errorf("%s seed %s: -print-failing over a store hit printed\n%s\nwant the first run's\n%s", target, seed, again.stdout, first.stdout[i:])
			}
			if !bytes.Equal(readFile(t, trace), exported) {
				t.Errorf("%s seed %s: -trace over a store hit exported a different schedule", target, seed)
			}
		}
	}
}

// TestKillResume: a campaign killed (exit 3, a real process) after its
// first cell must, resumed at a different worker count, produce aggregates
// byte-identical to an uninterrupted run's: a two-cell sct campaign, and
// Figure 2 at its default scale, a grid like the others.
func TestKillResume(t *testing.T) {
	_, sctWant := reference(t, reorderCells)
	fig2Ref := filepath.Join(t.TempDir(), "fig2-ref")
	mustRun(t, "bench", "-campaign", fig2Ref, "-workers", "2", "-q", "fig2")
	for _, c := range []struct {
		exp   string
		cells []string
		want  []byte
	}{
		{"sct", reorderCells, sctWant},
		{"fig2", nil, readFile(t, filepath.Join(fig2Ref, "aggregates.json"))},
	} {
		dir := filepath.Join(t.TempDir(), c.exp)
		campaign := func(extra ...string) (string, int) {
			args := append([]string{"bench", "-campaign", dir}, append(c.cells, extra...)...)
			_, stderr, code := binary(append(args, "-q", c.exp)...)
			return stderr, code
		}
		if stderr, code := campaign("-workers", "1", "-stop-after-cells", "1"); code != 3 {
			t.Fatalf("%s -stop-after-cells 1: exit %d, want 3\n%s", c.exp, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "aggregates.json")); err == nil {
			t.Fatalf("the killed %s campaign wrote aggregates.json", c.exp)
		}
		if stderr, code := campaign("-workers", "4"); code != 0 {
			t.Fatalf("%s resume: exit %d\n%s", c.exp, code, stderr)
		}
		if got := readFile(t, filepath.Join(dir, "aggregates.json")); !bytes.Equal(got, c.want) {
			t.Errorf("resumed %s aggregates differ from the uninterrupted run's:\n%s\nwant:\n%s", c.exp, got, c.want)
		}
	}
}

// TestDashboardEndpoints: `dash` over a finished campaign serves every
// endpoint — Prometheus content type, JSON aggregates, build identity, one
// SSE snapshot on connect.
func TestDashboardEndpoints(t *testing.T) {
	dir, _ := reference(t, reorderCells)
	dash := start(t, "dash", "-store", dir, "-addr", "127.0.0.1:0")
	base := dash.url(t, "dashboard")

	resp, _ := get(t, base+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	wantMatch(t, "/metrics", metricsPage(t, base), `(?m)^surw_campaign_sessions_stored 6$`)
	_, api := get(t, base+"/api/campaign")
	wantMatch(t, "/api/campaign", api, `"sessions": 6`)
	_, info := get(t, base+"/buildinfo")
	wantMatch(t, "/buildinfo", info, `"version": "`+buildinfo.Version+`"`)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	events, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	first, err := bufio.NewReader(events.Body).ReadString('\n')
	if err != nil || first != "event: snapshot\n" {
		t.Errorf("first SSE line %q (%v), want a snapshot event", first, err)
	}

	dash.cancel()
	dash.wait(t)
}

// TestAtlas: the exploration atlas observes and never perturbs — same
// aggregates with it attached — and it is a function of the campaign's
// key: a cell is a sum of per-schedule counts, so atlas.json is the same
// bytes at one worker as at two.
func TestAtlas(t *testing.T) {
	_, want := reference(t, bitshiftCells)
	dir, dir1 := t.TempDir(), t.TempDir()
	got := bench(t, dir, append([]string{"-workers", "2", "-atlas"}, bitshiftCells...)...)
	if !bytes.Equal(got, want) {
		t.Errorf("aggregates with -atlas differ from the atlas-less run's")
	}
	if got := bench(t, dir1, append([]string{"-workers", "1", "-atlas"}, bitshiftCells...)...); !bytes.Equal(got, want) {
		t.Errorf("aggregates with -atlas at one worker differ from the atlas-less run's")
	}
	atlasJSON := readFile(t, filepath.Join(dir, "atlas.json"))
	if !bytes.Equal(readFile(t, filepath.Join(dir1, "atlas.json")), atlasJSON) {
		t.Errorf("atlas.json at one worker differs from atlas.json at two")
	}
	svg := filepath.Join(dir, "atlas.svg")
	out := mustRun(t, "obs", "-atlas", filepath.Join(dir, "atlas.json"), "-out", svg)
	wantMatch(t, "obs -atlas", out.stdout,
		`(?m)atlas cell Fig1/bitshift_4/URW: 600 schedules, [1-9][0-9]* decisions, depth [1-9][0-9]*$`,
		`(?m)atlas cell Fig1/bitshift_4/RW: 600 schedules, [1-9][0-9]* decisions, depth [1-9][0-9]*$`)
	wantMatch(t, svg, string(readFile(t, svg)), `<svg`)
}

// TestAtlasRefusesOldVersion: an atlas.json of another schema version is
// refused, not half-read, and the error names both versions.
func TestAtlasRefusesOldVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atlas.json")
	old := `{"version": 1, "cells": [{"target": "Fig1/bitshift_4", "algorithm": "URW", "schedules": 1, "decisions": 1, "max_depth": 4}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run("obs", "-atlas", path)
	if out.code == 0 {
		t.Fatalf("surw obs -atlas accepted a version-1 export:\n%s", out.stdout)
	}
	wantMatch(t, "obs -atlas", out.stderr, fmt.Sprintf(`atlas version 1, this build reads %d`, atlas.Version))
}

// TestPortReproducesCommittedPort: the committed examples/workerpool/ported
// is byte-for-byte what `surw port` emits today.
func TestPortReproducesCommittedPort(t *testing.T) {
	dst := t.TempDir()
	// The generated header names the source as given, so run from the root.
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("cmd/surw")
	mustRun(t, "port", "-src", "examples/workerpool/pool", "-dst", dst)
	committed, _ := filepath.Glob("examples/workerpool/ported/*.go")
	if len(committed) == 0 {
		t.Fatal("no committed port to compare against")
	}
	for _, path := range committed {
		if got := readFile(t, filepath.Join(dst, filepath.Base(path))); !bytes.Equal(got, readFile(t, path)) {
			t.Errorf("%s drifted from what surw port emits:\n%s", path, got)
		}
	}
}

// TestWorkerPoolCell: the ported pool as a campaign cell, through the
// surwsync goroutine binding — SURW finds the seeded lost-wakeup deadlock,
// identically at one and two workers.
func TestWorkerPoolCell(t *testing.T) {
	cells := []string{"-sct-targets", "WP/pool_2w2j", "-sct-algs", "SURW,RW", "-sessions", "3", "-limit", "300"}
	w2 := bench(t, t.TempDir(), append([]string{"-workers", "2"}, cells...)...)
	w1 := bench(t, t.TempDir(), append([]string{"-workers", "1"}, cells...)...)
	if !bytes.Equal(w1, w2) {
		t.Errorf("aggregates differ between -workers 1 and 2")
	}
	wantMatch(t, "aggregates.json", string(w2), `"deadlock"`)
}

// TestBusyPortFailsBeforeWork: every listener binds before the command
// announces it or does anything else, so a busy port is an error up front
// rather than a campaign running on with no dashboard.
func TestBusyPortFailsBeforeWork(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()
	ref, _ := reference(t, reorderCells)
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"run", "-target", "CS/reorder_4", "-campaign", store, "-serve", busy},
		{"bench", "-pprof", busy, "-campaign", store, "-sessions", "1", "-limit", "10", "sct"},
		{"dash", "-store", ref, "-addr", busy},
	} {
		// The deadline is for `dash`, which a lost bind error would leave
		// serving nothing, successfully, until told to stop.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out := runContext(ctx, args...)
		cancel()
		if out.code == 0 || !strings.Contains(out.stderr, "address already in use") {
			t.Errorf("surw %v: exit %d, stderr %q", args, out.code, out.stderr)
		}
		if out.stdout != "" {
			t.Errorf("surw %v worked before failing:\n%s", args, out.stdout)
		}
	}
	if data, err := os.ReadFile(filepath.Join(store, "runs.jsonl")); err == nil && len(data) > 0 {
		t.Errorf("a session ran before the listener failed:\n%s", data)
	}
}

// TestListedTargetsResolve: one resolver — every concrete name `run -list`
// prints is a target `prof` accepts.
func TestListedTargetsResolve(t *testing.T) {
	suites, families := map[string]bool{}, map[string]bool{}
	for _, name := range strings.Fields(mustRun(t, "run", "-list").stdout) {
		if strings.Contains(name, "<") {
			families[name] = true // e.g. Fig1/bitshift_<k>
			continue
		}
		suites[strings.SplitN(name, "/", 2)[0]] = true
		if out := run("prof", "-target", name, "-json"); out.code != 0 {
			t.Errorf("prof -target %s: exit %d: %s", name, out.code, out.stderr)
		}
	}
	for _, s := range []string{"CS", "RaceBench", "LightFTP"} {
		if !suites[s] {
			t.Errorf("run -list printed no %s target", s)
		}
	}
	for _, f := range []string{"LightFTP@<progseed>", "Fig1/bitshift_<k>"} {
		if !families[f] {
			t.Errorf("run -list printed no %s family", f)
		}
	}
	// Figure 2's program, and a LightFTP trial beyond the first, as the
	// fig2 and ftp experiments name them.
	mustRun(t, "prof", "-target", "Fig1/bitshift_5")
	mustRun(t, "prof", "-target", "LightFTP@98")
	// Every target a `surw bench` plan names, which a fleet worker resolves.
	for _, k := range experiments.Plan(experiments.DefaultScale(), "fig2", "sct", "rb", "ftp") {
		if _, ok := experiments.ByName(k.Target); !ok {
			t.Errorf("the plan's target %s does not resolve", k.Target)
		}
	}
	for _, name := range []string{"LightFTP@x", "bitshift_5"} {
		if out := run("prof", "-target", name); out.code != 2 {
			t.Errorf("prof -target %s: exit %d, want 2", name, out.code)
		}
	}
}

// TestProfDrawsTheSessionsDelta: prof's first Δ row is the draw a session
// of the target makes from that census and seed — for a RaceBench base its
// region at racebench.RegionThreshold, not a single variable or a region
// at a threshold no grid draws.
func TestProfDrawsTheSessionsDelta(t *testing.T) {
	const seed = 5
	tgt, _ := experiments.ByName("RaceBench/blackscholes")
	prof, err := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: seed, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}})
	if err != nil {
		t.Fatal(err)
	}
	want, ok := tgt.Select(prof, rand.New(rand.NewSource(seed)))
	if !ok {
		t.Fatal("the base's census yields no region")
	}
	lines := strings.Split(mustRun(t, "prof", "-target", tgt.Name, "-seed", strconv.Itoa(seed)).stdout, "\n")
	i := slices.Index(lines, "Example Δ selections")
	if i < 0 || i+3 >= len(lines) {
		t.Fatalf("no Δ table in prof's output:\n%s", strings.Join(lines, "\n"))
	}
	if row := lines[i+3]; !strings.Contains(row, "  "+want.Desc+", per-thread Δ counts") {
		t.Errorf("first Δ row %q, want the target's draw %q", row, want.Desc)
	}
}

// TestObsBenchTools: the benchmark toolbelt ci.sh and `make bench` lean on —
// a gate passes and fails on the number it names, and -bench-compare
// accepts an unchanged snapshot (the committed baseline, which must parse)
// and rejects one whose schedules/s collapsed.
func TestObsBenchTools(t *testing.T) {
	tmp := t.TempDir()
	text, snap, bad := filepath.Join(tmp, "bench.txt"), filepath.Join(tmp, "snap.json"), filepath.Join(tmp, "bad.json")
	line := "BenchmarkParallelSessions/workers_1-2 \t 20\t 1000 ns/op\t 30000 schedules/s\t 9.5 allocs/schedule\n"
	if err := os.WriteFile(text, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRun(t, "obs", "-in", text, "-gate", "BenchmarkParallelSessions/workers_1.allocs/schedule<=12", "-bench2json", "-out", snap)
	if out := run("obs", "-in", text, "-gate", "BenchmarkParallelSessions/workers_1.schedules/s>=30001"); out.code == 0 {
		t.Errorf("a violated gate passed:\n%s", out.stdout)
	}
	collapsed := strings.Replace(string(readFile(t, snap)), `"schedules/s": 30000`, `"schedules/s": 1`, 1)
	if err := os.WriteFile(bad, []byte(collapsed), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRun(t, "obs", "-bench-compare", snap, snap)
	if out := run("obs", "-bench-compare", snap, bad); out.code == 0 || !strings.Contains(out.stdout, "REGRESSED") {
		t.Errorf("-bench-compare accepted a collapsed schedules/s: exit %d\n%s", out.code, out.stdout)
	}
	mustRun(t, "obs", "-bench-compare", "../../BENCH_obs.json", "../../BENCH_obs.json")
}
