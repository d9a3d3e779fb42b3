// Command benchmark is the repository's benchmark: it runs one named
// workload for a fixed number of seconds of identical passes, checks the
// outputs, and prints every metric by name and unit, the last line being
// the JSON result BENCHMARK.json's contract fixes. See README.md.
//
//	go run -C benchmark . --workload hunt_store --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var opt options
	var trace int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every runner.Config.Seed / Scale.Seed derives from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "seconds of timed passes")
	flag.IntVar(&trace, "trace", 0, "1: run the per-layer ladder, record spans, print the per-layer metrics")
	flag.BoolVar(&opt.quick, "quick", false, "tiny budgets (the harness tests' size); with --seconds 0, two passes")
	flag.StringVar(&opt.outDir, "out", "out", "directory for the trace, layers.txt and, without a tmpfs, the stores")
	flag.StringVar(&opt.storeRoot, "store-root", "/dev/shm", "tmpfs directory the store workloads create their stores under; when unusable they go under --out")
	flag.StringVar(&opt.report, "report", "", "append the full report to this JSONL file")
	flag.BoolVar(&compare, "compare", false, "compare two report files: -compare a.jsonl b.jsonl")
	flag.Parse()
	opt.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		agree, err := compareFiles(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !agree {
			os.Exit(3)
		}
		return
	}

	rep, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if opt.report != "" {
		if err := appendReport(opt.report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
