package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the renderers write now")

// golden compares got with testdata/name byte for byte. The files were
// written by the hand-formatted renderers the Prom writer replaced, so a
// difference is a change to a page scrapers already parse.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
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

// goldenSnapshot is a literal aggregate: two algorithms with sparse
// histograms (the overflow bucket included), a latency with explicit
// buckets short of +Inf, one that reaches +Inf, and one with none.
func goldenSnapshot() Snapshot {
	s := Snapshot{
		Schedules:       1200,
		Steps:           74400,
		Truncated:       3,
		Buggy:           41,
		Elapsed:         2 * time.Second,
		SchedulesPerSec: 600,
		StepsPerSched:   62,
		AllocsPerSched:  9.7125,
		TruncationRate:  0.0025,
		WorkerBusy:      3500 * time.Millisecond,
		WorkerItems:     12,
		Utilization:     0.875,
		Algorithms: []AlgSnapshot{
			{Algorithm: "RW", Decisions: 30, PickEntropy: 0.9182958340544896, MeanBranch: 2.3333333333333335},
			{Algorithm: "SURW", Decisions: 1e6, PickEntropy: 1.5, MeanBranch: 16},
		},
		Latencies: []LatencySnap{
			{Op: "lease_rpc", Count: 3, SumSeconds: 0.0042, P50: 0.001048575, P95: 0.002097151, P99: 0.002097151,
				Buckets: []LatencyBucket{{LE: 0.001048575, CumCount: 2}, {LE: 0.002097151, CumCount: 3}}},
			{Op: "session", Count: 5, SumSeconds: 1.25e-07, P50: 3.1e-08, P95: math.Inf(1), P99: math.Inf(1),
				Buckets: []LatencyBucket{{LE: 3.1e-08, CumCount: 4}, {LE: math.Inf(1), CumCount: 5}}},
			{Op: "submit", Count: 7, SumSeconds: 140000},
		},
	}
	s.Algorithms[0].Branch[2], s.Algorithms[0].Branch[3] = 20, 10
	s.Algorithms[0].Pick[0], s.Algorithms[0].Pick[1] = 20, 10
	s.Algorithms[1].Branch[16] = 1e6
	s.Algorithms[1].Pick[0], s.Algorithms[1].Pick[7], s.Algorithms[1].Pick[16] = 5e5, 25e4, 25e4
	return s
}

func TestSnapshotPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	s := goldenSnapshot()
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.golden", buf.Bytes())
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("golden page does not lint: %v", err)
	}
	// A snapshot with nothing per-algorithm and no latency omits those
	// families altogether rather than declaring them empty.
	buf.Reset()
	if err := (&Snapshot{}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if page := buf.String(); strings.Contains(page, "surw_decisions_total") || strings.Contains(page, "surw_latency_seconds") {
		t.Errorf("empty snapshot declared an empty family:\n%s", page)
	}
}

// The writer escapes exactly what the format defines and replaces invalid
// UTF-8, so whatever arrives as a label value comes back out of the page.
func TestPromLabelEscaping(t *testing.T) {
	const hostile = "a\\b\"c\nd}\t,\xff"
	var p Prom
	p.Gauge("surw_x", "Gauge.").Int(1, "w", hostile, "v", "plain")
	var buf bytes.Buffer
	if err := p.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if want := "surw_x{w=\"a\\\\b\\\"c\\nd}\t,\uFFFD\",v=\"plain\"} 1\n"; !strings.HasSuffix(page, want) {
		t.Fatalf("sample line:\n%q\nwant suffix\n%q", page, want)
	}
	if err := LintPrometheus(strings.NewReader(page)); err != nil {
		t.Fatalf("escaped page fails lint: %v", err)
	}
	line := page[strings.LastIndex(page, "surw_x{")+len("surw_x{"):]
	labels, _, err := parseLabels(line)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSuffix(strings.TrimPrefix(labels.key, `v="plain",w="`), `"`)
	if got = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(got); got != strings.ToValidUTF8(hostile, "\uFFFD") {
		t.Fatalf("label round-trips to %q, want %q", got, hostile)
	}
}
