package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specPath is BENCHMARK.json as seen from the benchmark's directory, which
// is where `go run -C benchmark .` and `go test` both run.
const specPath = "../BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles is the A/A mode: two sets of untraced reports of one
// commit, compared per workload and metric with the bounds and directions
// BENCHMARK.json declares. It prints a Markdown table and reports whether
// every gated pair agrees: medians within the bound and both quartile
// spreads within it too. A metric that is exact for a seed must, when both
// sets ran the same seeds, read identically seed by seed. The ungated
// timings are listed for information and never change the result.
func compareFiles(w io.Writer, spec, pathA, pathB string) (bool, error) {
	s, err := loadSpec(spec)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	// values returns a metric's value per seed over a set's untraced
	// reports of one workload, and the values in file order.
	values := func(reps []report, workload, metric string) (map[int64]float64, []float64) {
		bySeed := map[int64]float64{}
		var xs []float64
		for _, r := range reps {
			if r.Workload != workload || r.Trace {
				continue
			}
			v, ok := r.EndToEnd[metric]
			if !ok {
				v, ok = r.Timings[metric]
			}
			if ok {
				bySeed[r.Seed] = v.Value
				xs = append(xs, v.Value)
			}
		}
		return bySeed, xs
	}
	// iqr is the driver's spread: quartile distance as a share of the median.
	iqr := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		if m := median(xs); m != 0 {
			return (q3 - q1) / math.Abs(m)
		}
		return 0
	}
	ungated := map[string]bool{}
	metrics := append([]specMetric(nil), s.EndToEnd...)
	for _, t := range timingSpecs {
		for _, m := range s.PerLayer {
			if m.Name == t.name {
				metrics = append(metrics, m)
				ungated[m.Name] = true
			}
		}
	}
	fmt.Fprintln(w, "| workload | metric | runs A/B | median A | median B | B vs A | spread A | spread B | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	all := true
	for _, wl := range s.Workloads {
		for _, m := range metrics {
			seedA, xa := values(a, wl.Name, m.Name)
			seedB, xb := values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / math.Abs(ma)
			}
			bound, verdict := fmt.Sprintf("%.0f%%", 100*m.Bound), "agree"
			switch {
			case ungated[m.Name]:
				bound, verdict = "—", "not gated"
			case math.Abs(diff) > m.Bound:
				verdict = "DIFFER"
			case iqr(xa) > m.Bound || iqr(xb) > m.Bound:
				verdict = "SPREAD OVER BOUND"
			}
			if exactForSeed[m.Name] && sameSeeds(seedA, seedB) && verdict == "agree" {
				verdict = "agree, identical per seed"
				for seed, v := range seedA {
					if seedB[seed] != v {
						verdict = fmt.Sprintf("DIFFER (seed %d: %g vs %g)", seed, v, seedB[seed])
					}
				}
			}
			if !ungated[m.Name] && !strings.HasPrefix(verdict, "agree") {
				all = false
			}
			fmt.Fprintf(w, "| %s | %s (%s, %s) | %d/%d | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				wl.Name, m.Name, m.Unit, m.Better, len(xa), len(xb), ma, mb, 100*diff, 100*iqr(xa), 100*iqr(xb), bound, verdict)
		}
	}
	return all, nil
}

func sameSeeds(a, b map[int64]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for seed := range a {
		if _, ok := b[seed]; !ok {
			return false
		}
	}
	return true
}
