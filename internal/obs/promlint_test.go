package obs

import (
	"strings"
	"testing"

	"surw/internal/obs/promtest"
)

func lint(t *testing.T, page string) error {
	t.Helper()
	return promtest.Lint(strings.NewReader(page))
}

func TestLintAcceptsWellFormedPage(t *testing.T) {
	page := `# HELP surw_sessions_total Sessions executed.
# TYPE surw_sessions_total counter
surw_sessions_total 42
# HELP surw_workers Gauge of connected workers.
# TYPE surw_workers gauge
surw_workers 3
# HELP surw_latency_seconds Operation latency.
# TYPE surw_latency_seconds histogram
surw_latency_seconds_bucket{op="submit",le="0.001"} 1
surw_latency_seconds_bucket{op="submit",le="0.01"} 3
surw_latency_seconds_bucket{op="submit",le="+Inf"} 3
surw_latency_seconds_sum{op="submit"} 0.012
surw_latency_seconds_count{op="submit"} 3
`
	if err := lint(t, page); err != nil {
		t.Fatalf("well-formed page rejected: %v", err)
	}
}

func TestLintRules(t *testing.T) {
	cases := []struct {
		name string
		page string
		want string // substring of the error
	}{
		{"sample before HELP/TYPE",
			"surw_things_total 1\n",
			"before"},
		{"counter without _total",
			"# HELP surw_things Things.\n# TYPE surw_things counter\nsurw_things 1\n",
			"_total"},
		{"bad surw name",
			"# HELP surw_BadName Things.\n# TYPE surw_BadName gauge\nsurw_BadName 1\n",
			"name"},
		{"negative counter",
			"# HELP surw_things_total Things.\n# TYPE surw_things_total counter\nsurw_things_total -1\n",
			"negative"},
		{"NaN value",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x NaN\n",
			"NaN"},
		{"duplicate TYPE",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\n# TYPE surw_x gauge\nsurw_x 1\n",
			"TYPE"},
		{"unknown TYPE value",
			"# HELP surw_x Gauge.\n# TYPE surw_x meter\nsurw_x 1\n",
			"meter"},
		{"_total family declared gauge",
			"# HELP surw_busy_seconds_total Busy.\n# TYPE surw_busy_seconds_total gauge\nsurw_busy_seconds_total 1.5\n",
			"not counter"},
		{"escape the format does not define",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{w=\"a\\tb\"} 1\n",
			"escapes are"},
		{"unterminated label value",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{w=\"a} 1\n",
			"unterminated"},
		{"unterminated label set",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{w=\"a\"\n",
			"unterminated"},
		{"doubled comma between labels",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{w=\"a\",,v=\"b\"} 1\n",
			"comma-separated"},
		{"leading comma in a label set",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{,w=\"a\"} 1\n",
			"comma-separated"},
		{"labels separated by a space",
			"# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{w=\"a\" v=\"b\"} 1\n",
			"comma-separated"},
		{"empty le is a bad bound, not a missing label",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"\"} 2\nsurw_lat_seconds_sum 0.1\nsurw_lat_seconds_count 2\n",
			"bad le"},
		{"_count with an empty le",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"+Inf\"} 2\nsurw_lat_seconds_sum 0.1\nsurw_lat_seconds_count{le=\"\"} 2\n",
			"carries an le"},
		{"histogram missing +Inf",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"0.1\"} 2\nsurw_lat_seconds_sum 0.1\nsurw_lat_seconds_count 2\n",
			"+Inf"},
		{"histogram +Inf != count",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"0.1\"} 2\nsurw_lat_seconds_bucket{le=\"+Inf\"} 2\n" +
				"surw_lat_seconds_sum 0.1\nsurw_lat_seconds_count 3\n",
			"count"},
		{"histogram buckets decrease",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"0.1\"} 5\nsurw_lat_seconds_bucket{le=\"1\"} 3\n" +
				"surw_lat_seconds_bucket{le=\"+Inf\"} 5\nsurw_lat_seconds_sum 0.1\nsurw_lat_seconds_count 5\n",
			"cumulative"},
		{"histogram missing _sum",
			"# HELP surw_lat_seconds H.\n# TYPE surw_lat_seconds histogram\n" +
				"surw_lat_seconds_bucket{le=\"+Inf\"} 2\nsurw_lat_seconds_count 2\n",
			"_sum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := lint(t, c.page)
			if err == nil {
				t.Fatalf("lint accepted:\n%s", c.page)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// A label value is a quoted string: a brace, a comma or an escaped quote
// inside it is data, not the end of the label set.
func TestLintReadsLabelValuesAsQuotedStrings(t *testing.T) {
	page := "# HELP surw_x Gauge.\n# TYPE surw_x gauge\n" +
		`surw_x{w="a}b,c\"d\\e\nf",v="} 2"} 1` + "\n"
	if err := lint(t, page); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	// The format allows an empty set and one trailing comma.
	page = "# HELP surw_x Gauge.\n# TYPE surw_x gauge\nsurw_x{} 1\nsurw_x{w=\"a\",} 2\n"
	if err := lint(t, page); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
}

// Non-surw families (e.g. Go runtime metrics, if ever proxied) are not held
// to the surw naming rule, only to the structural ones.
func TestLintIgnoresForeignNames(t *testing.T) {
	page := "# HELP go_goroutines Goroutines.\n# TYPE go_goroutines gauge\ngo_goroutines 10\n"
	if err := lint(t, page); err != nil {
		t.Fatalf("foreign family rejected: %v", err)
	}
}

// Every Prometheus page the repo serves must lint: the Metrics page with
// latency series attached, and the latency writer on its own, label-free.
func TestLintEmptyLatencyPage(t *testing.T) {
	var s LatencySet
	var b strings.Builder
	var p Prom
	p.Histogram("surw_latency_seconds", "Latency.", s.Snapshots())
	if err := p.Flush(&b); err != nil {
		t.Fatal(err)
	}
	if err := lint(t, b.String()); err != nil {
		t.Fatalf("empty latency page fails lint: %v\n%s", err, b.String())
	}
}
