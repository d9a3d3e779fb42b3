package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"surw/internal/atlas"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/remote"
)

// workerCmd executes distributed-campaign leases from a `surw bench
// -coordinate` coordinator (see internal/remote).
//
// Usage:
//
//	surw worker -coordinator http://HOST:PORT [-name NAME] [-workers N]
//
// The worker asks the coordinator for a lease — a batch of (target,
// algorithm, session) cells — executes it through the same session engine
// a local run uses, and submits the session records; the reply to a
// submission is the next lease. Sessions are deterministic, so any fleet
// of workers produces records bit-identical to a local run's; the
// coordinator deduplicates whatever lease churn makes redundant. The
// process exits 0 when the coordinator reports the campaign complete, and
// a SIGINT/SIGTERM abandons the lease in hand cleanly (the worker's
// leave-taking gives it back; failing that, it expires and is re-leased).
//
// Observability (none of it changes any session record):
//
//	-metrics-addr ADDR  serve the per-worker /metrics Prometheus page;
//	                also attaches the scheduler-level collector (results
//	                stay byte-identical). Not -metrics: that name is the
//	                shared option set's, and means a file.
//	-pprof ADDR     serve net/http/pprof for the process lifetime (a
//	                lease the coordinator reports stalled shows where here)
//	-atlas          accumulate the exploration atlas (schedule-space
//	                cartography, see internal/atlas) across this worker's
//	                sessions and ship the cumulative snapshot with every
//	                submission; the coordinator merges the fleet.
func workerCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("worker", stdout, stderr)
	c.shared("workers", "q", "pprof", "atlas", "version")
	var (
		coordinator = c.fs.String("coordinator", "", "coordinator base URL, e.g. http://10.0.0.1:7071 (required)")
		name        = c.fs.String("name", "", "worker name shown on the dashboard, unique among running workers: the coordinator holds one lease per name (default host:pid)")
		metricsAddr = c.fs.String("metrics-addr", "", "serve this worker's Prometheus /metrics page on this address (attaches the scheduler collector; results stay byte-identical)")
	)
	return c.run(args, func() error {
		if *coordinator == "" {
			return usagef("-coordinator URL is required")
		}
		if *name == "" {
			host, _ := os.Hostname() // the name is a label; "" is a fine host
			*name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		c.name += " " + *name
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()

		w := &remote.Worker{
			Coordinator: *coordinator,
			Name:        *name,
			Resolve:     experiments.ByName,
			Workers:     c.workers,
		}
		if c.atlas {
			w.Atlas = atlas.New()
		}
		if *metricsAddr != "" {
			w.Metrics = obs.NewMetrics()
			mux := http.NewServeMux()
			mux.Handle("/metrics", w.Metrics.Handler())
			if err := c.listen("metrics", *metricsAddr, mux); err != nil {
				return err
			}
		}
		if !c.quiet {
			w.Logf = c.logf
		}

		start := time.Now()
		err := w.Run(ctx)
		if errors.Is(err, context.Canceled) {
			return errors.New("interrupted; the lease in hand is given back (or expires) and requeued")
		}
		if err == nil {
			c.logf("done in %s", time.Since(start).Round(time.Millisecond))
		}
		return err
	})
}
