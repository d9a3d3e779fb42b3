package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"surw/internal/obs"
	"surw/internal/sched"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specOrFatal(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesHarness holds BENCHMARK.json and the harness's own tables
// to the same workloads, metric names and units.
func TestSpecMatchesHarness(t *testing.T) {
	s := specOrFatal(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []specMetric, have []metricSpec, bounded bool) {
		if len(declared) != len(have) {
			t.Fatalf("%s: %d declared, %d in the harness", kind, len(declared), len(have))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if d.Name != have[i].name || d.Unit != have[i].unit {
				t.Errorf("%s %d: declared %s [%s], harness %s [%s]", kind, i, d.Name, d.Unit, have[i].name, have[i].unit)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndSpecs, true)
	check("per_layer", s.PerLayer, perLayerSpecs, false)
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}

// wantKinds is the set of span kinds a traced pass of each workload must
// record.
var wantKinds = map[string][]string{
	"sample":         {kindPass, kindCell, kindSession, kindLookup, kindAppend},
	"sample_traced":  {kindPass, kindCell, kindSession, kindLookup, kindAppend},
	"shim_sample":    {kindPass, kindCell, kindSession, kindLookup, kindAppend},
	"hunt_store":     {kindPass, kindCell, kindSession, kindLookup, kindAppend, kindAggregate},
	"fleet_loopback": {kindPass, kindCell, kindSession, kindLookup, kindAppend, kindAggregate, kindRTT, kindHandler},
}

// TestQuickRuns drives every workload through the real run path at the
// quick size, untraced and traced, and checks what the contract and the
// issue ask of the output.
func TestQuickRuns(t *testing.T) {
	s := specOrFatal(t)
	// os/signal keeps one goroutine for the life of the process once
	// anything subscribes; start it before taking the baseline.
	removeOnSignal(&scratch{root: t.TempDir()})()
	goroutines := runtime.NumGoroutine()
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rep, err := run(options{workload: wl.Name, seed: 7, seconds: 0, trace: trace, quick: true, outDir: out, storeRoot: "/dev/shm"}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%v", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
				}
				declared := s.EndToEnd
				if trace {
					declared = s.PerLayer
				}
				if len(rep.Result.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(rep.Result.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := rep.Result.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: value %v", d.Name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
				// The result line must be exactly the contract's four keys.
				line, err := json.Marshal(rep.Result)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line keys: %v (%v)", keys, err)
				}
				for _, d := range timingSpecs {
					if m, ok := rep.Timings[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
						t.Errorf("ungated timing %s: %+v", d.name, m)
					}
				}
				if _, err := os.Stat(rep.StoreRoot); !os.IsNotExist(err) {
					t.Errorf("scratch root %s left behind (%v)", rep.StoreRoot, err)
				}
				if n := sched.Bindings(); n != 0 {
					t.Errorf("%d goroutine bindings left", n)
				}
				if trace {
					checkTraceOutputs(t, out, wl.Name, rep)
				}
			})
		}
	}
	// Parked pool workers and HTTP connection goroutines wind down
	// asynchronously; give them a moment before calling it a leak.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

func checkTraceOutputs(t *testing.T, dir, workload string, rep *report) {
	t.Helper()
	sum := 0.0
	for _, name := range shareNames {
		sum += rep.PerLayer["share."+name].Value
	}
	if math.Abs(sum-1) > 0.1 {
		t.Errorf("share.* sum to %v", sum)
	}
	b, err := os.ReadFile(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	have := map[string]int{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" { // track names
			continue
		}
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		have[e.Name]++
	}
	for _, k := range wantKinds[workload] {
		if have[k] == 0 {
			t.Errorf("trace has no %s span (have %v)", k, have)
		}
	}
	layers, err := os.ReadFile(filepath.Join(dir, workload+".layers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"share.execute", "self ms", "core.ns_per_decision.SURW"} {
		if !strings.Contains(string(layers), want) {
			t.Errorf("layers.txt lacks %q", want)
		}
	}
}

// TestWarnings checks the report says so when it measured something other
// than what was asked: here, stores that could not go on the tmpfs offered.
func TestWarnings(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	rep, err := run(options{workload: "hunt_store", seed: 3, seconds: 0, quick: true, outDir: out, storeRoot: blocked}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.StoreRoot, out) {
		t.Errorf("stores under %s, not under the output directory %s", rep.StoreRoot, out)
	}
	// The output directory may itself be on a tmpfs; the warning follows
	// what the stores are on, not what was asked.
	if warned := strings.Contains(strings.Join(rep.Warnings, "\n"), "disk-backed"); warned == rep.Tmpfs {
		t.Errorf("stores on tmpfs: %v, disk warning given: %v", rep.Tmpfs, warned)
	}
	if !rep.Result.Correct {
		t.Errorf("a warning changed correct: %v", rep.Problems)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTimes checks the sweep on a hand-built pass: two lanes, nested
// children, a gap nobody covers, and a coordinator's store call adopted by
// the handler that contains it.
func TestSelfTimes(t *testing.T) {
	id := func(n byte) obs.SpanID { return obs.SpanID{n} }
	spans := []obs.Span{
		{ID: id(1), Name: kindPass, Start: 0, Dur: 100},
		{ID: id(2), Parent: id(1), Name: kindCell, Start: 10, Dur: 80},
		{ID: id(3), Parent: id(2), Name: kindSession, Start: 10, Dur: 40},  // lane A
		{ID: id(4), Parent: id(2), Name: kindSession, Start: 10, Dur: 80},  // lane B
		{ID: id(5), Parent: id(3), Name: kindAppend, Start: 40, Dur: 10},   // inside lane A's session
		{ID: id(6), Parent: id(1), Name: kindAggregate, Start: 90, Dur: 5}, // after the cell
	}
	self, wall := selfTimes(spans)
	if wall != 100 {
		t.Fatalf("wall %v", wall)
	}
	// 0–10 pass; 10–40 two sessions; 40–50 session+append; 50–90 one
	// session; 90–95 aggregate; 95–100 pass.
	want := map[string]float64{kindPass: 15, kindSession: 30 + 5 + 40, kindAppend: 5, kindAggregate: 5}
	total := 0.0
	for k, name := range kindNames {
		if math.Abs(self[k]-want[name]) > 1e-9 {
			t.Errorf("%s self %v, want %v", name, self[k], want[name])
		}
		total += self[k]
	}
	if math.Abs(total-wall) > 1e-9 {
		t.Errorf("self times sum to %v, wall %v", total, wall)
	}
	shares := sharesOf(self, wall)
	if math.Abs(shares[0]-0.75) > 1e-9 || math.Abs(shares[1]-0.10) > 1e-9 || math.Abs(shares[4]-0.15) > 1e-9 {
		t.Errorf("shares %v", shares)
	}

	fleet := []obs.Span{
		{ID: id(1), Name: kindPass, Start: 0, Dur: 100},
		{ID: id(2), Parent: id(1), Name: kindCell, Start: 0, Dur: 100},
		{ID: id(3), Parent: id(2), Name: kindHandler, Track: "coordinator lane 0", Start: 10, Dur: 30},
		{ID: id(4), Parent: id(2), Name: kindHandler, Track: "coordinator lane 1", Start: 20, Dur: 5},
		{ID: id(5), Parent: id(2), Name: kindAppend, Start: 30, Dur: 5}, // only the first handler is still open
		{ID: id(6), Parent: id(2), Name: kindLookup, Start: 60, Dur: 5}, // outside every handler
	}
	adoptStoreCalls(fleet)
	if fleet[4].Parent != id(3) || fleet[4].Track != "coordinator lane 0" {
		t.Errorf("append adopted by %v on %q", fleet[4].Parent, fleet[4].Track)
	}
	if fleet[5].Parent != id(2) {
		t.Errorf("a lookup outside every handler was adopted by %v", fleet[5].Parent)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sched []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range sched {
			rep := &report{Workload: "sample", Seed: int64(i), EndToEnd: map[string]metricValue{
				"allocs_per_schedule": {v, "count"}, "schedules_per_session": {v, "count"}},
				Timings: map[string]metricValue{"schedules_per_s": {1000 * v, "1/s"}}}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 102, 103, 104})
	same := write("same.jsonl", []float64{101, 102, 100, 104, 103})
	slow := write("slow.jsonl", []float64{60, 61, 62, 63, 64}) // worse than any allowed bound
	var sb strings.Builder
	agree, err := compareFiles(&sb, specPath, a, a)
	if err != nil || !agree {
		t.Errorf("A/A: agree=%v err=%v\n%s", agree, err, sb.String())
	}
	for _, row := range []string{
		"| sample | allocs_per_schedule (count, lower) | 5/5 |",
		"| sample | schedules_per_s (1/s, higher) | 5/5 | 102000 | 102000 | +0.00% | 2.94% | 2.94% | — | not gated |",
		"agree, identical per seed",
	} {
		if !strings.Contains(sb.String(), row) {
			t.Errorf("table lacks %q:\n%s", row, sb.String())
		}
	}
	// The same values under other seeds: the medians agree, but a metric
	// that is exact for a seed no longer reads the same seed by seed.
	sb.Reset()
	agree, err = compareFiles(&sb, specPath, a, same)
	if err != nil || agree || !strings.Contains(sb.String(), "DIFFER (seed") {
		t.Errorf("A/permuted: agree=%v err=%v\n%s", agree, err, sb.String())
	}
	sb.Reset()
	agree, err = compareFiles(&sb, specPath, a, slow)
	if err != nil || agree || !strings.Contains(sb.String(), "| DIFFER |") {
		t.Errorf("A/slow: agree=%v err=%v\n%s", agree, err, sb.String())
	}
}
