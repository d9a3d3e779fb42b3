package remote

// The coordinator-side health engine: stall detection over the soft state
// the coordinator already tracks. Three rules, each cheap enough to
// evaluate on every /api/health request under the handler mutex:
//
//   - stale workers: a worker whose last request is older than 3x the
//     lease TTL (heartbeats arrive at TTL/3, so this means ~9 missed
//     heartbeats);
//   - slow cells: a (target, algorithm) cell whose observed schedules/s
//     falls below slowCellFraction of the fleet median — the signal that a
//     target hangs or a worker class is degraded, invisible to liveness
//     checks because heartbeats still flow;
//   - aging leases: a lease outstanding longer than 5x the TTL — the
//     worker is heartbeating (else the lease would have expired) but not
//     finishing, the classic silent-stall shape the surw worker watchdog
//     attacks from the other side.
//
// Verdicts are wire-typed in internal/campaign (HealthReport) so the
// dashboard and surw dash render them without importing this package.

import (
	"fmt"
	"sort"
	"time"

	"surw/internal/campaign"
)

// The health rules' thresholds, the first two as multiples of the lease TTL.
const (
	staleWorkerTTLs = 3
	agingLeaseTTLs  = 5
	// slowCellFraction flags cells below this fraction of the fleet median
	// schedules/s.
	slowCellFraction = 0.25
	// minCellBusy is the least observed execution time before a cell's
	// throughput participates in the slow-cell rule; below it the rate
	// estimate is noise.
	minCellBusy = 250 * time.Millisecond
)

// cellStat accumulates observed throughput per campaign cell: schedules
// executed and worker-reported busy time, both attributed at result
// submission (a lease never mixes cells, so the attribution is exact).
type cellStat struct {
	schedules int64
	busy      time.Duration
}

// healthLocked evaluates the three stall rules. Caller holds c.mu and has
// already expired stale leases (so "aging" leases here are alive —
// heartbeating but not finishing).
func (c *Coordinator) healthLocked(now time.Time) *campaign.HealthReport {
	h := &campaign.HealthReport{}

	staleAfter := staleWorkerTTLs * c.opts.LeaseTTL
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		if age := now.Sub(ws.lastSeen); age > staleAfter {
			h.StaleWorkers++
			h.Issues = append(h.Issues, campaign.HealthIssue{
				Kind: campaign.HealthStaleWorker, Subject: name,
				Detail: fmt.Sprintf("no request for %s (deadline %s)", age.Round(time.Millisecond), staleAfter),
			})
		}
	}

	// Slow cells: compare each cell's schedules/s against the fleet
	// median. Needs at least two measured cells for a median to mean
	// anything.
	type cellRate struct {
		name string
		rate float64
	}
	var rates []cellRate
	for cell, cs := range c.cells {
		if cs.busy < minCellBusy || cs.schedules == 0 {
			continue
		}
		rates = append(rates, cellRate{
			name: cell.Target + "/" + cell.Algorithm,
			rate: float64(cs.schedules) / cs.busy.Seconds(),
		})
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i].rate < rates[j].rate })
	if n := len(rates); n >= 2 {
		median := rates[n/2].rate
		if n%2 == 0 {
			median = (rates[n/2-1].rate + rates[n/2].rate) / 2
		}
		h.FleetMedianSchedulesPerSec = median
		floor := slowCellFraction * median
		for _, cr := range rates {
			if cr.rate < floor {
				h.SlowCells++
				h.Issues = append(h.Issues, campaign.HealthIssue{
					Kind: campaign.HealthSlowCell, Subject: cr.name,
					Detail: fmt.Sprintf("%.0f schedules/s vs fleet median %.0f (floor %.0f)",
						cr.rate, median, floor),
				})
			}
		}
	}

	agingAfter := agingLeaseTTLs * c.opts.LeaseTTL
	ids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := c.leases[id]
		if age := now.Sub(l.granted); age > agingAfter {
			h.AgingLeases++
			h.Issues = append(h.Issues, campaign.HealthIssue{
				Kind: campaign.HealthAgingLease, Subject: id,
				Detail: fmt.Sprintf("held by %s for %s (deadline %s), %d sessions, %d heartbeats",
					l.worker, age.Round(time.Millisecond), agingAfter, l.n, l.hb),
			})
		}
	}

	h.Healthy = len(h.Issues) == 0
	return h
}

// Health evaluates the stall rules against the current soft state.
func (c *Coordinator) Health() *campaign.HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireStaleLocked(now)
	return c.healthLocked(now)
}
