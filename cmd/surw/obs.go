package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"surw/internal/atlas"
	"surw/internal/obs"
)

// obsCmd is the observability toolbelt that keeps ci.sh and the
// Makefile plain shell: it converts `go test -bench` output into the
// machine-readable BENCH_obs.json, enforces benchmark regression gates, and
// validates trace and flight-recorder artifacts.
//
// Usage:
//
//	go test -bench=. -benchmem . | surw obs -bench2json -out BENCH_obs.json
//	surw obs -gate 'BenchmarkPooledSchedule/pooled.allocs/op<=11' -in bench.txt
//	surw obs -bench2json -in bench.txt -bench-history BENCH_history.jsonl
//	surw obs -bench-compare [-tolerance 0.10] OLD.json NEW.json
//	surw obs -atlas results/atlas.json [-out atlas.svg]
//	surw obs -check-trace results/trace.json
//	surw obs -check-flight results/flight/flight_....json
//	surw obs -assemble-trace results/fleet.spans.jsonl [-out fleet.json]
//
// -gate may be repeated; gates read benchmark text from -in (or stdin) and
// the command exits non-zero on the first violated gate. -check-trace
// verifies a file is well-formed Chrome trace_event JSON as Perfetto
// expects; -check-flight verifies a flight dump parses and is marked
// reproduced. -assemble-trace reads a fleet span log (JSONL, one span per
// line, as `surw bench -fleet-trace` writes it from Coordinator.Spans),
// groups the spans into distributed traces, and reports how many are
// complete — a single lease root with prefix-replay, session, and submit
// children spanning at least two tracks. It exits non-zero when no
// complete trace exists; with -out it also renders the spans as Chrome
// trace_event JSON (one Perfetto track per worker) for visual inspection.
//
// -bench-history appends the parsed results as one timestamped JSONL
// record, growing the benchmark trajectory `make bench` maintains beside
// the BENCH_obs.json snapshot. -bench-compare OLD NEW reads two such
// snapshots and exits non-zero when any shared benchmark's schedules/s
// dropped by more than -tolerance (default 10%); ci.sh gates with -gate
// alone. -atlas validates an exploration-atlas export (`surw bench -atlas`),
// prints each cell's cartography totals, and with -out renders the full
// SVG atlas document.
func obsCmd(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("obs", stdout, stderr)
	c.shared("version")
	var gates []string
	var (
		bench2json = c.fs.Bool("bench2json", false, "parse `go test -bench` text from -in/stdin and emit JSON")
		in         = c.fs.String("in", "", "input file for -bench2json/-gate (default stdin)")
		out        = c.fs.String("out", "", "output file for -bench2json (default stdout)")
		checkTrace = c.fs.String("check-trace", "", "validate a Chrome trace_event JSON file")
		checkFl    = c.fs.String("check-flight", "", "validate a flight-recorder dump")
		assemble   = c.fs.String("assemble-trace", "", "assemble distributed traces from a span-log JSONL file and verify at least one is complete")
		atlasFile  = c.fs.String("atlas", "", "validate an atlas.json export and print per-cell cartography; with -out, render the SVG atlas document")
		benchCmp   = c.fs.Bool("bench-compare", false, "compare two BENCH_obs.json files (args: OLD NEW); exit non-zero on a throughput regression beyond -tolerance")
		benchTol   = c.fs.Float64("tolerance", 0.10, "allowed fractional schedules/s drop for -bench-compare (0.10 = 10%)")
		benchHist  = c.fs.String("bench-history", "", "append the parsed -bench2json results as a timestamped record to this JSONL trajectory file")
	)
	c.fs.Func("gate", "benchmark regression gate 'name.metric<=value' (repeatable)", func(g string) error {
		gates = append(gates, g)
		return nil
	})
	// say prints one line of the report under the command's name; stdout,
	// unlike logf's diagnostics.
	say := func(format string, a ...any) { fmt.Fprintf(stdout, c.name+": "+format+"\n", a...) }
	return c.run(args, func() error {
		switch {
		case *benchCmp:
			files := c.fs.Args()
			if len(files) != 2 {
				return usagef("-bench-compare wants exactly two arguments: OLD.json NEW.json")
			}
			before, err := obs.ReadBenchJSON(files[0])
			if err != nil {
				return err
			}
			after, err := obs.ReadBenchJSON(files[1])
			if err != nil {
				return err
			}
			cmps, err := obs.CompareBench(before, after, "schedules/s", *benchTol)
			if err != nil {
				return err
			}
			regressed := 0
			for _, cmp := range cmps {
				verdict := "ok"
				if cmp.Regressed {
					verdict = "REGRESSED"
					regressed++
				}
				say("bench %s: %.0f -> %.0f schedules/s (%+.1f%%) %s",
					cmp.Name, cmp.Old, cmp.New, 100*cmp.Delta, verdict)
			}
			if regressed > 0 {
				return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% (%s vs %s)",
					regressed, 100**benchTol, files[1], files[0])
			}

		case *atlasFile != "":
			snap, err := readAtlas(*atlasFile)
			if err != nil {
				return err
			}
			if len(snap.Cells) == 0 {
				return fmt.Errorf("%s holds no atlas cells", *atlasFile)
			}
			for _, cell := range snap.Cells {
				say("atlas cell %s/%s: %d schedules, %d decisions, depth %d",
					cell.Target, cell.Algorithm, cell.Schedules, cell.Decisions, cell.MaxDepth)
			}
			if *out != "" {
				if err := os.WriteFile(*out, []byte(atlas.DocumentSVG(snap)), 0o644); err != nil {
					return err
				}
				say("atlas SVG written to %s", *out)
			}

		case *assemble != "":
			spans, err := obs.ReadSpansFile(*assemble)
			if err != nil {
				return err
			}
			complete, total, firstErr := obs.CountComplete(spans)
			say("%s: %d spans, %d traces, %d complete (lease→submit)", *assemble, len(spans), total, complete)
			if *out != "" {
				if err := writeFile(*out, func(w io.Writer) error { return obs.WriteSpanChromeTrace(w, spans) }); err != nil {
					return err
				}
				say("Chrome trace written to %s", *out)
			}
			if complete == 0 {
				if firstErr != nil {
					return fmt.Errorf("no complete distributed trace: %w", firstErr)
				}
				return fmt.Errorf("no complete distributed trace in %s", *assemble)
			}

		case *checkTrace != "":
			f, err := os.Open(*checkTrace)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := obs.ValidateChromeTrace(f); err != nil {
				return err
			}
			say("%s is well-formed Chrome trace_event JSON", *checkTrace)

		case *checkFl != "":
			fr, err := obs.ReadFlight(*checkFl)
			if err != nil {
				return err
			}
			if !fr.Reproduced {
				return fmt.Errorf("flight %s was not reproduced at capture time (nondeterministic target?)", *checkFl)
			}
			say("flight %s: target %s alg %s bug %s fingerprint %s, %d trailing decisions",
				*checkFl, fr.Target, fr.Algorithm, fr.BugID, fr.Fingerprint, len(fr.LastDecisions))

		case *bench2json || *benchHist != "" || len(gates) > 0:
			r := io.Reader(os.Stdin)
			if *in != "" {
				f, err := os.Open(*in)
				if err != nil {
					return err
				}
				defer f.Close()
				r = f
			}
			results, err := obs.ParseBench(r)
			if err != nil {
				return err
			}
			if len(results) == 0 {
				return fmt.Errorf("no benchmark result lines found in input")
			}
			for _, g := range gates {
				if err := obs.CheckGate(g, results); err != nil {
					return err
				}
				say("gate ok: %s", g)
			}
			if *bench2json {
				write := func(w io.Writer) error { return obs.WriteJSON(w, results) }
				if *out == "" {
					err = write(stdout)
				} else {
					err = writeFile(*out, write)
				}
				if err != nil {
					return err
				}
			}
			if *benchHist != "" {
				rec := obs.BenchRecord{Time: time.Now().UTC().Format(time.RFC3339), Results: results}
				if err := obs.AppendBenchRecord(*benchHist, rec); err != nil {
					return err
				}
				c.logf("bench record appended to %s", *benchHist)
			}

		default:
			c.fs.Usage()
			return usagef("no action given")
		}
		return nil
	})
}
