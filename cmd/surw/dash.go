package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/remote"
)

// dashCmd serves the campaign dashboard over an existing
// run-store, read-only: it never appends, never truncates, and follows a
// store some campaign process (`surw bench -campaign` / `surw run -campaign`) is
// actively writing by tailing runs.jsonl on a poll interval.
//
// Usage:
//
//	surw dash -store DIR [-addr :8090] [-poll 1s] [-remote URL]
//
// For a distributed campaign (`surw bench -coordinate`, see internal/remote),
// -remote names the coordinator's base URL; the dashboard then also shows
// the worker fleet — per-worker utilization, leases in flight, expiries,
// duplicates, the fleet latency percentiles, the stall-detection health
// panel, and the seen-class filter's distinct-class / duplicate-rate
// gauges — and /metrics gains the surw_remote_* gauges. The status fetch
// never breaks the page: an unreachable or misspelled coordinator URL
// surfaces as an error banner (and as remote_error in /api/campaign)
// instead of silently rendering an empty fleet view.
//
// When the store directory holds an atlas.json (written by `surw bench
// -atlas`), the dashboard also serves the exploration-atlas panels —
// prefix-density heatmaps, depth profiles, uniformity drift — and
// /api/yield reports per-cell discovery yield.
//
// Endpoints:
//
//	/              HTML dashboard (inline-SVG survival and coverage curves)
//	/api/campaign  campaign aggregates as JSON
//	/metrics       Prometheus text page (content type version=0.0.4)
//	/events        SSE stream: one snapshot on connect, then live events
//	/buildinfo     build identity JSON
//
// To embed the same dashboard in a live campaign process instead, pass
// -serve to `surw bench` or `surw run`.
func dashCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("dash", stdout, stderr)
	c.shared("version")
	var (
		storeDir  = c.fs.String("store", "", "campaign run-store directory (required)")
		addr      = c.fs.String("addr", "localhost:8090", "HTTP listen address")
		poll      = c.fs.Duration("poll", time.Second, "interval for tailing new records from the store")
		remoteURL = c.fs.String("remote", "", "distributed-campaign coordinator base URL (optional; adds the worker-fleet view)")
	)
	return c.run(args, func() error {
		if *storeDir == "" {
			c.fs.Usage()
			return usagef("-store DIR is required")
		}
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()

		store, err := campaign.OpenRead(*storeDir)
		if err != nil {
			return err
		}
		srv := campaign.NewServer(store, nil)
		if *remoteURL != "" {
			srv.SetRemote(remoteStatus(*remoteURL))
		}
		// A campaign run with -atlas leaves DIR/atlas.json beside
		// aggregates.json; serve its heatmaps, depth profiles, and uniformity
		// verdicts post-hoc. Re-read per request, so a campaign that rewrites
		// the file (or writes it for the first time) shows up without a restart.
		atlasPath := filepath.Join(*storeDir, "atlas.json")
		srv.SetAtlas(func() (*atlas.Snapshot, error) {
			snap, err := readAtlas(atlasPath)
			if os.IsNotExist(err) {
				return nil, nil
			}
			return snap, err
		})
		what := fmt.Sprintf("dashboard over %s (%d sessions)", *storeDir, store.Len())
		if err := c.listen(what, *addr, srv); err != nil {
			return err
		}

		// Follow the store until a signal (or the caller) says stop.
		tick := time.NewTicker(*poll)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
				if _, err := store.Poll(); err != nil {
					c.logf("poll: %v", err)
				}
			}
		}
	})
}

// remoteStatus fetches the coordinator's /v1/status snapshot on demand.
// Errors are returned, not swallowed: the dashboard renders them as a
// banner, so a wrong -remote URL (or an exited coordinator) is visible on
// the page instead of masquerading as an empty fleet.
func remoteStatus(base string) func() (*campaign.RemoteStatus, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	return func() (*campaign.RemoteStatus, error) {
		resp, err := client.Get(base + remote.PathStatus)
		if err != nil {
			return nil, fmt.Errorf("fetch %s%s: %w", base, remote.PathStatus, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetch %s%s: %s", base, remote.PathStatus, resp.Status)
		}
		var rs campaign.RemoteStatus
		if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
			return nil, fmt.Errorf("decode %s%s: %w", base, remote.PathStatus, err)
		}
		return &rs, nil
	}
}
