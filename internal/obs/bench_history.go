package obs

// Benchmark trajectory tooling: BENCH_obs.json is the latest run's parsed
// results, BENCH_history.jsonl is the append-only trail of every `make
// bench` (one timestamped record per run), and CompareBench is the
// regression gate between any two parsed result sets — ci.sh uses it to
// fail a branch whose schedules/s dropped more than the tolerance against
// the committed baseline.

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReadBenchJSON loads a parsed benchmark result file as written by
// `surw obs -bench2json` (the BENCH_obs.json shape: a JSON array of
// BenchResult).
func ReadBenchJSON(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []BenchResult
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("obs: %s holds no benchmark results", path)
	}
	return results, nil
}

// BenchRecord is one BENCH_history.jsonl entry: the results of a single
// `make bench` run plus its timestamp.
type BenchRecord struct {
	// Time is the run's RFC 3339 UTC timestamp.
	Time    string        `json:"time"`
	Results []BenchResult `json:"results"`
}

// AppendBenchRecord appends the record as one JSON line to the history
// file, creating it on first use. Append-only: history is a trajectory,
// never a snapshot, so nothing here truncates.
func AppendBenchRecord(path string, rec BenchRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("obs: append %s: %w", path, err)
	}
	return f.Close()
}

// ReadBenchHistory loads every record of a BENCH_history.jsonl file in
// append order.
func ReadBenchHistory(path string) ([]BenchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []BenchRecord
	dec := json.NewDecoder(f)
	for dec.More() {
		var rec BenchRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("obs: parse %s record %d: %w", path, len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// BenchComparison is one benchmark's old-versus-new value of a
// higher-is-better metric.
type BenchComparison struct {
	Name string
	Old  float64
	New  float64
	// Delta is the fractional change; -0.12 means 12% slower.
	Delta float64
	// Regressed marks a drop beyond the comparison's tolerance.
	Regressed bool
}

// CompareBench compares a higher-is-better metric (e.g. "schedules/s")
// between two parsed benchmark sets, flagging every shared benchmark whose
// new value dropped by more than tolerance (a fraction: 0.10 allows a 10%
// drop). Benchmarks missing the metric on either side are skipped — but an
// empty intersection is an error, so a renamed benchmark or an empty file
// cannot silently pass the gate.
func CompareBench(before, after []BenchResult, metric string, tolerance float64) ([]BenchComparison, error) {
	old := make(map[string]float64, len(before))
	for _, br := range before {
		if v, ok := br.Metrics[metric]; ok {
			old[br.Name] = v
		}
	}
	var out []BenchComparison
	for _, br := range after {
		nv, ok := br.Metrics[metric]
		if !ok {
			continue
		}
		ov, ok := old[br.Name]
		if !ok {
			continue
		}
		c := BenchComparison{Name: br.Name, Old: ov, New: nv}
		if ov > 0 {
			c.Delta = (nv - ov) / ov
			c.Regressed = c.Delta < -tolerance
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: no benchmark carries metric %q on both sides", metric)
	}
	return out, nil
}
