package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, which -pprof serves
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"surw/internal/atlas"
	"surw/internal/buildinfo"
	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/ftp"
	"surw/internal/obs"
	"surw/internal/racebench"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// command is one subcommand invocation: its flag set, its streams, and the
// shared option set — every flag that means the same thing on more than one
// subcommand is declared here, once (see shared), together with the
// plumbing behind it. A subcommand picks the shared flags it takes, adds
// its own to fs, and hands its body to run.
type command struct {
	name           string // "surw run": the prefix of every diagnostic
	fs             *flag.FlagSet
	stdout, stderr io.Writer

	target, pprof, campaign, serve, metricsFile string
	seed                                        int64
	workers                                     int
	quiet, atlas, version                       bool

	// metrics is the observability aggregator, non-nil when something will
	// read it: the -metrics file or the -serve dashboard.
	metrics *obs.Metrics
	store   *campaign.Store // the -campaign run-store; nil without the flag
	// sessions is store as the runner takes it: a nil interface without
	// -campaign, never a typed nil the runner would go on to consult.
	sessions runner.SessionStore
	dash     *campaign.Server // the -serve dashboard; nil without the flag

	stops []func() // what run undoes before it returns, in order of acquisition
}

func newCommand(sub string, stdout, stderr io.Writer) *command {
	c := &command{name: "surw " + sub, stdout: stdout, stderr: stderr}
	c.fs = flag.NewFlagSet(c.name, flag.ContinueOnError)
	c.fs.SetOutput(stderr)
	return c
}

// shared declares the named flags of the shared option set on c.fs.
func (c *command) shared(names ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&c.target, "target", "", "benchmark target name (see surw run -list)")
	all.Int64Var(&c.seed, "seed", 1, "master seed")
	all.IntVar(&c.workers, "workers", 0, "parallel workers (1 = sequential; 0 = one per CPU); results are identical at any setting")
	all.BoolVar(&c.quiet, "q", false, "suppress progress output")
	all.StringVar(&c.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	all.StringVar(&c.campaign, "campaign", "", "persist per-session results to this run-store directory (resumable)")
	all.StringVar(&c.serve, "serve", "", "serve the live campaign dashboard on this address (requires -campaign)")
	all.StringVar(&c.metricsFile, "metrics", "", "write a Prometheus-style metrics page to this file after the run")
	all.BoolVar(&c.atlas, "atlas", false, "accumulate the exploration atlas (cartography + uniformity drift); a campaign writes DIR/atlas.json, a fleet worker ships snapshots to the coordinator")
	all.BoolVar(&c.version, "version", false, "print the build version and exit")
	for _, n := range names {
		f := all.Lookup(n) // nil, and a panic at first use, for a name not above
		c.fs.Var(f.Value, n, f.Usage)
	}
}

func printVersion(w io.Writer) { fmt.Fprintf(w, "surw %s\n", buildinfo.Get()) }

// usageError marks a failure of the invocation rather than of the work:
// exit code 2, like a flag the flag package rejects.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// logf writes one diagnostic line to stderr under the command's name.
func (c *command) logf(format string, a ...any) {
	fmt.Fprintf(c.stderr, c.name+": "+format+"\n", a...)
}

// run parses args, serves -version and -pprof, runs body, and turns its
// error into a diagnostic and the exit code: 2 for a usageError, else 1.
// Everything the command acquired through c is released before it returns.
func (c *command) run(args []string, body func() error) int {
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if c.version {
		printVersion(c.stdout)
		return 0
	}
	defer func() {
		for i := len(c.stops) - 1; i >= 0; i-- {
			c.stops[i]()
		}
	}()
	if c.metricsFile != "" || c.serve != "" {
		c.metrics = obs.NewMetrics()
	}
	var err error
	if c.pprof != "" {
		err = c.listen("pprof (/debug/pprof/)", c.pprof, nil)
	}
	if err == nil {
		err = body()
	}
	if err == nil {
		return 0
	}
	c.logf("%v", err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// listen binds addr before returning — a busy port fails the command
// before it does any work — announces the bound address on stderr (so
// ":0" is usable), and serves h (nil: http.DefaultServeMux) until the
// command returns.
func (c *command) listen(what, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	fmt.Fprintf(c.stderr, "%s: %s serving on http://%s/\n", c.name, what, ln.Addr())
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			c.logf("%s: %v", what, err)
		}
	}()
	c.stops = append(c.stops, func() {
		_ = srv.Close() // a failed close of the listener leaves nothing to undo
		<-done
	})
	return nil
}

// writeFile creates path, hands it to write, and closes it: the
// create-write-close every artifact a command leaves behind goes through.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// openCampaign opens the -campaign run-store and builds the -serve
// dashboard over it. The dashboard is not listening yet: the caller
// attaches what it has (a fleet, an atlas) and then calls serveDashboard.
// A campaign is: openCampaign → serveDashboard → run → finish.
func (c *command) openCampaign() error {
	if c.serve != "" && c.campaign == "" {
		return usagef("-serve requires -campaign DIR")
	}
	if c.campaign == "" {
		return nil
	}
	store, err := campaign.Open(c.campaign)
	if err != nil {
		return err
	}
	// Store synced every record as it appended it; nothing rides on this close.
	c.stops = append(c.stops, func() { _ = store.Close() })
	c.store, c.sessions = store, store
	if c.serve != "" {
		c.dash = campaign.NewServer(store, c.metrics)
	}
	return nil
}

func (c *command) serveDashboard() error {
	if c.dash == nil {
		return nil
	}
	return c.listen("dashboard", c.serve, c.dash)
}

// finish leaves behind what the run produced: the metrics summary on
// stdout and the -metrics page; DIR/aggregates.json from the store; and,
// given a non-empty atlas snapshot, DIR/atlas.json next to it — never
// inside it: cartography is execution observation, and aggregates stay
// byte-identical with or without it.
func (c *command) finish(snap *atlas.Snapshot) error {
	if c.metrics != nil {
		fmt.Fprintln(c.stdout, c.metrics.Summary())
	}
	if c.metricsFile != "" {
		if err := writeFile(c.metricsFile, c.metrics.WritePrometheus); err != nil {
			return err
		}
	}
	if c.store == nil {
		return nil
	}
	path := filepath.Join(c.store.Dir(), "aggregates.json")
	err := writeFile(path, func(w io.Writer) error { return campaign.WriteAggregates(w, c.store) })
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "campaign aggregates written to %s\n", path)
	if snap == nil || len(snap.Cells) == 0 {
		return nil
	}
	path = filepath.Join(c.store.Dir(), "atlas.json")
	if err := writeFile(path, func(w io.Writer) error { return obs.WriteJSON(w, snap) }); err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "exploration atlas (%d cells) written to %s\n", len(snap.Cells), path)
	return nil
}

// readAtlas parses an atlas.json export of this build's atlas version.
func readAtlas(path string) (*atlas.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap atlas.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if snap.Version != atlas.Version {
		return nil, fmt.Errorf("%s: atlas version %d, this build reads %d", path, snap.Version, atlas.Version)
	}
	return &snap, nil
}

// allTargetNames lists every runnable target across the suites.
func allTargetNames() []string {
	names := sctbench.Names()
	for _, b := range racebench.Suite() {
		names = append(names, b.Target().Name)
	}
	return append(names, "LightFTP", "LightFTP@<progseed>", "bitshift_<k>")
}

// lookupTarget resolves a target from any suite, plus two families: the
// LightFTP case study under a trial's client scripts ("LightFTP@<progseed>",
// what the ftp experiment's cells are named; the bare name is trial seed 1)
// and the synthetic "bitshift_<k>" (the paper's Figure 1 program: C(2k,k)
// equally interesting interleavings, ideal for eyeballing exported
// traces). It is the one resolver: whatever `surw run -list` prints, every
// subcommand that takes a target name — and a fleet worker handed one in a
// lease — accepts.
func lookupTarget(name string) (runner.Target, bool) {
	if tgt, ok := sctbench.ByName(name); ok {
		return tgt, true
	}
	if tgt, ok := racebench.ByName(name); ok {
		return tgt, true
	}
	if tgt, ok := ftp.ByName(name); ok {
		return tgt, true
	}
	if rest, ok := strings.CutPrefix(name, "bitshift_"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 && k <= 31 {
			return runner.Target{Name: name, Prog: experiments.Bitshift(k)}, true
		}
	}
	return runner.Target{}, false
}

// resolveTarget looks up the -target flag.
func (c *command) resolveTarget() (runner.Target, error) {
	tgt, ok := lookupTarget(c.target)
	if !ok {
		return tgt, usagef("unknown target %q (try surw run -list)", c.target)
	}
	return tgt, nil
}
