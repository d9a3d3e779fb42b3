package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surw/internal/sched"
)

// Collector.Decide reads interned strings out of a live *sched.State, so
// the ring and exporter behaviour over real schedules is exercised in
// collector_test.go (package obs_test); this file unit-tests the pure
// pieces: histograms, metrics math, flight serialization, bench parsing.

func TestBucket(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 1}, {15, 15}, {16, 16}, {17, 16}, {100, 16},
	} {
		if got := bucket(tc.in); got != tc.want {
			t.Errorf("bucket(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMetricsSnapshotAndPrometheus(t *testing.T) {
	m := NewMetrics()
	// Schedules are counted through the tracer a session attaches, once
	// each, at EndSchedule.
	tr := m.Tracer()
	for _, r := range []*sched.Result{
		{Steps: 10},
		{Steps: 20, Truncated: true},
		{Steps: 30, Failure: &sched.Failure{Kind: sched.FailAssert, BugID: "b"}},
	} {
		tr.BeginSchedule("RW")
		tr.EndSchedule(r)
	}
	m.Latency("session").Observe(40 * time.Millisecond)
	m.BatchDone(2, 100*time.Millisecond)

	s := m.Snapshot()
	if s.Schedules != 3 || s.Steps != 60 || s.Truncated != 1 || s.Buggy != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.StepsPerSched != 20 {
		t.Fatalf("steps/schedule %v, want 20", s.StepsPerSched)
	}
	if want := 1.0 / 3.0; math.Abs(s.TruncationRate-want) > 1e-12 {
		t.Fatalf("truncation rate %v, want %v", s.TruncationRate, want)
	}
	if want := 0.2; math.Abs(s.Utilization-want) > 1e-9 {
		t.Fatalf("utilization %v, want %v", s.Utilization, want)
	}
	if s.WorkerItems != 1 || s.WorkerBusy != 40*time.Millisecond {
		t.Fatalf("worker items %d busy %v, want the session histogram's 1 and 40ms", s.WorkerItems, s.WorkerBusy)
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"surw_schedules_total 3",
		"surw_steps_total 60",
		"surw_truncated_total 1",
		"surw_buggy_total 1",
		"# TYPE surw_schedules_total counter",
		"# TYPE surw_truncation_rate gauge",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("prometheus page missing %q:\n%s", want, page)
		}
	}
	// Prometheus text format: every non-comment line is "name[{labels}] value".
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	if sum := m.Summary(); !strings.Contains(sum, "3 schedules") {
		t.Errorf("summary %q missing schedule count", sum)
	}
}

// TestMetricsPickEntropy drives the per-algorithm histograms through the
// tracer interface with a hand-built state-free harness: a MetricsTracer
// only reads st.Enabled(), so a real schedule is used.
func TestMetricsAlgStatsDirect(t *testing.T) {
	m := NewMetrics()
	a := m.algStats("X")
	// Simulate 8 consulted decisions picking positions 0 and 1 equally from
	// a 2-thread enabled set: entropy must be exactly 1 bit.
	for i := 0; i < 8; i++ {
		a.decisions.Add(1)
		a.branch[bucket(2)].Add(1)
		a.pick[bucket(i%2)].Add(1)
	}
	s := m.Snapshot()
	if len(s.Algorithms) != 1 || s.Algorithms[0].Algorithm != "X" {
		t.Fatalf("algorithms %+v", s.Algorithms)
	}
	as := s.Algorithms[0]
	if as.Decisions != 8 {
		t.Fatalf("decisions %d", as.Decisions)
	}
	if math.Abs(as.PickEntropy-1.0) > 1e-12 {
		t.Fatalf("pick entropy %v, want 1.0", as.PickEntropy)
	}
	if math.Abs(as.MeanBranch-2.0) > 1e-12 {
		t.Fatalf("mean branching %v, want 2.0", as.MeanBranch)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `surw_pick_entropy_bits{alg="X"} 1`) {
		t.Errorf("page missing labeled entropy:\n%s", buf.String())
	}
}

func TestFlightRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fr := &FlightRecord{
		Version:     FlightVersion,
		Target:      "CS/reorder_4",
		Algorithm:   "SURW",
		Session:     2,
		Schedule:    17,
		Seed:        12345,
		ProgSeed:    7,
		Delta:       `accesses to var "b"`,
		Recording:   "3:0,2,1",
		BugID:       "reorder",
		FailKind:    "assert",
		FailMsg:     "checker saw stale value",
		FailStep:    11,
		Steps:       11,
		Threads:     5,
		Fingerprint: "00deadbeef00cafe",
		Reproduced:  true,
		LastDecisions: []RecordJSON{
			{Step: 10, TID: 4, Path: "0.3", Seq: 2, Kind: "read", Obj: "b", Enabled: 5, Consulted: true},
		},
	}
	path, err := WriteFlight(dir, fr)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	if strings.ContainsAny(base, "/ ") || !strings.HasPrefix(base, "flight_CS_reorder_4_SURW_s2_") {
		t.Fatalf("unexpected flight filename %q", base)
	}
	got, err := ReadFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fr)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Fatalf("round trip mismatch:\n%s\n%s", want, have)
	}
}

func TestReadFlightRejectsBadDumps(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := writeFile(p, content); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := ReadFlight(write("garbage.json", "not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFlight(write("vers.json", `{"version":99,"target":"x","recording":"0:","bug_id":"b"}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := ReadFlight(write("empty.json", `{"version":1}`)); err == nil {
		t.Error("missing fields accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestParseBench(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: surw
cpu: Intel(R) Xeon(R)
BenchmarkPooledSchedule/fresh-8         	    2000	     49908 ns/op	   14520 B/op	      43 allocs/op
BenchmarkPooledSchedule/pooled-8        	    2000	     48699 ns/op	     327 B/op	      11 allocs/op
BenchmarkParallelSessions/workers_4-8   	       5	 210000000 ns/op	        3800 schedules/s	        19.5 allocs/schedule
PASS
ok  	surw	0.2s
`
	rs, err := ParseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(rs), rs)
	}
	if rs[0].Name != "BenchmarkPooledSchedule/fresh" || rs[0].Procs != 8 {
		t.Fatalf("suffix not stripped: %+v", rs[0])
	}
	if rs[1].Name != "BenchmarkPooledSchedule/pooled" || rs[1].Procs != 8 {
		t.Fatalf("suffix not stripped: %+v", rs[1])
	}
	if rs[1].Metrics["allocs/op"] != 11 {
		t.Fatalf("allocs/op %v", rs[1].Metrics["allocs/op"])
	}
	if rs[2].Name != "BenchmarkParallelSessions/workers_4" {
		t.Fatalf("underscored name mangled: %+v", rs[2])
	}
	if rs[2].Metrics["schedules/s"] != 3800 {
		t.Fatalf("custom metric lost: %+v", rs[2].Metrics)
	}
}

// A trailing -N is the GOMAXPROCS suffix only when every line of the run
// carries the same one; otherwise it is part of the benchmark's own name.
func TestParseBenchProcsSuffix(t *testing.T) {
	arms := []string{"BenchmarkAblationCountNoise/scale-1", "BenchmarkAblationCountNoise/scale-2", "BenchmarkAblationCountNoise/scale-4"}
	for _, tc := range []struct {
		name      string
		suffix    string   // what go test appended to every name
		extra     []string // further lines, verbatim names
		wantProcs int
		wantExtra []string
	}{
		{name: "GOMAXPROCS 1", suffix: ""},
		{name: "GOMAXPROCS 2", suffix: "-2", wantProcs: 2},
		{name: "GOMAXPROCS 2 beside a dash-free name", suffix: "-2", extra: []string{"BenchmarkOther-2"}, wantProcs: 2, wantExtra: []string{"BenchmarkOther"}},
		{name: "-cpu 1,2 mixes suffixed and bare lines", suffix: "", extra: []string{"BenchmarkOther-2"}, wantExtra: []string{"BenchmarkOther-2"}},
	} {
		var in strings.Builder
		for _, n := range arms {
			fmt.Fprintf(&in, "%s%s \t 100 \t 5 ns/op\n", n, tc.suffix)
		}
		for _, n := range tc.extra {
			fmt.Fprintf(&in, "%s \t 100 \t 5 ns/op\n", n)
		}
		rs, err := ParseBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]string{}, arms...), tc.wantExtra...)
		if len(rs) != len(want) {
			t.Fatalf("%s: parsed %d results, want %d", tc.name, len(rs), len(want))
		}
		for i, r := range rs {
			if r.Name != want[i] || r.Procs != tc.wantProcs {
				t.Errorf("%s: result %d = %q procs %d, want %q procs %d", tc.name, i, r.Name, r.Procs, want[i], tc.wantProcs)
			}
		}
	}
}

func TestCheckGate(t *testing.T) {
	rs := []BenchResult{{
		Name:    "BenchmarkPooledSchedule/pooled",
		Metrics: map[string]float64{"allocs/op": 11, "ns/op": 48699},
	}}
	for _, gate := range []string{
		"BenchmarkPooledSchedule/pooled.allocs/op<=11",
		"BenchmarkPooledSchedule/pooled.allocs/op<=12",
		"BenchmarkPooledSchedule/pooled.ns/op>=1",
	} {
		if err := CheckGate(gate, rs); err != nil {
			t.Errorf("gate %q failed: %v", gate, err)
		}
	}
	for _, gate := range []string{
		"BenchmarkPooledSchedule/pooled.allocs/op<=10", // regression
		"BenchmarkPooledSchedule/pooled.B/op<=100",     // missing metric
		"BenchmarkAbsent/x.allocs/op<=1",               // missing benchmark
		"no-operator",                                  // malformed
		".allocs/op<=1",                                // empty name
	} {
		if err := CheckGate(gate, rs); err == nil {
			t.Errorf("gate %q passed, want failure", gate)
		}
	}
}
