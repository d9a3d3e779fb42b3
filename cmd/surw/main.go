// Command surw is the repository's one binary: every tool is a subcommand
// over one shared option set (common.go).
//
//	surw run     one target under one algorithm: schedules-to-first-bug,
//	             traces, flight records, bit-exact replay
//	surw bench   the paper's tables and figures; campaigns, the fleet
//	             coordinator, the exploration atlas
//	surw dash    the dashboard over an existing run-store, read-only
//	surw worker  execute leases from a `surw bench -coordinate` campaign
//	surw obs     benchmark gates and trace / flight / atlas validation
//	surw prof    the profiling census SURW consumes
//	surw fuzz    the framework's self-check: the crosscheck oracle over
//	             generated programs
//	surw port    rewrite a stdlib-concurrency package onto surw/surwsync
//	surw version the build version
//
// Each subcommand's file documents it, and `surw <subcommand> -h` lists
// its flags. A subcommand is a plain function of (ctx, args, stdout,
// stderr) returning the exit code, so the package's tests drive them
// in-process.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
)

// subcommands maps each name to its entry point.
var subcommands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) int{
	"run":     runCmd,
	"bench":   benchCmd,
	"dash":    dashCmd,
	"worker":  workerCmd,
	"obs":     obsCmd,
	"prof":    profCmd,
	"fuzz":    fuzzCmd,
	"port":    portCmd,
	"version": func(_ context.Context, _ []string, stdout, _ io.Writer) int { printVersion(stdout); return 0 },
}

func main() {
	os.Exit(surw(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// surw dispatches args[0] to its subcommand.
func surw(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(ctx, args[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "surw: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: surw run|bench|dash|worker|obs|prof|fuzz|port|version [flags]")
	return 2
}
