package obs

// Benchmark-output tooling: ParseBench turns `go test -bench` text into
// structured results (backing `make bench` → BENCH_obs.json) and CheckGate
// enforces "name.metric<=value" regression gates on them (backing the ci.sh
// allocation-overhead gate that keeps the disabled tracer free).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped (e.g. "BenchmarkPooledSchedule/pooled").
	Name string `json:"name"`
	// Procs is the stripped GOMAXPROCS suffix (0 if none was stripped).
	Procs int `json:"procs,omitempty"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "<value> <unit>" pair on the line
	// ("ns/op", "B/op", "allocs/op", plus any b.ReportMetric extras).
	Metrics map[string]float64 `json:"metrics"`
}

// ParseBench extracts benchmark result lines from `go test -bench` output,
// tolerating the interleaved goos/goarch/pkg/PASS chatter.
//
// go test appends -GOMAXPROCS to every name of a run (and nothing at
// GOMAXPROCS 1), so a trailing -N is that suffix only when every line
// carries the same one; otherwise it belongs to the names ("scale-1",
// "scale-2", "scale-4" at GOMAXPROCS 1) and stays.
func ParseBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name N value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		br := BenchResult{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			br.Metrics[fields[i+1]] = v
		}
		if ok {
			out = append(out, br)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan bench output: %w", err)
	}
	procs := 0
	for i, br := range out {
		p, _ := strconv.Atoi(br.Name[strings.LastIndexByte(br.Name, '-')+1:])
		if p <= 0 || i > 0 && p != procs {
			return out, nil // no suffix shared by every line: names stay whole
		}
		procs = p
	}
	for i := range out {
		out[i].Name = out[i].Name[:strings.LastIndexByte(out[i].Name, '-')]
		out[i].Procs = procs
	}
	return out, nil
}

// CheckGate evaluates one regression gate of the form
// "name.metric<=value" (or ">=") against parsed benchmark results, e.g.
//
//	BenchmarkPooledSchedule/pooled.allocs/op<=11
//
// The metric may itself contain dots and slashes; the separator is the last
// '.' before the comparison operator. A gate whose benchmark is absent from
// results fails (a silently-skipped gate gates nothing).
func CheckGate(gate string, results []BenchResult) error {
	op := "<="
	i := strings.Index(gate, "<=")
	if i < 0 {
		i = strings.Index(gate, ">=")
		op = ">="
	}
	if i < 0 {
		return fmt.Errorf("obs: gate %q: want name.metric<=value or >=", gate)
	}
	lhs, rhs := gate[:i], gate[i+2:]
	bound, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if err != nil {
		return fmt.Errorf("obs: gate %q: bad bound: %v", gate, err)
	}
	dot := strings.LastIndexByte(lhs, '.')
	// "allocs/op" and "B/op" contain no dot, so the last '.' of the LHS
	// always separates benchmark name from metric; "ns/op" likewise.
	if dot <= 0 || dot == len(lhs)-1 {
		return fmt.Errorf("obs: gate %q: want name.metric%svalue", gate, op)
	}
	name, metric := lhs[:dot], lhs[dot+1:]
	for _, br := range results {
		if br.Name != name {
			continue
		}
		v, ok := br.Metrics[metric]
		if !ok {
			return fmt.Errorf("obs: gate %q: benchmark %s has no metric %q (has %s)",
				gate, name, metric, metricNames(br))
		}
		pass := v <= bound
		if op == ">=" {
			pass = v >= bound
		}
		if !pass {
			return fmt.Errorf("obs: gate FAILED: %s.%s = %g, want %s %g", name, metric, v, op, bound)
		}
		return nil
	}
	return fmt.Errorf("obs: gate %q: benchmark %q not found in results", gate, name)
}

func metricNames(br BenchResult) string {
	names := make([]string, 0, len(br.Metrics))
	for k := range br.Metrics {
		names = append(names, k)
	}
	// Deterministic error text matters for tests.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}
