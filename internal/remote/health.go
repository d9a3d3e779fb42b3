package remote

// The coordinator-side health engine: stall detection over the soft state
// the coordinator already tracks. Two rules, both of liveness, each cheap
// enough to evaluate on every Status call (/v1/status, /metrics, the
// dashboard) under the handler mutex:
//
//   - stale workers: a worker that has not taken its leave and whose last
//     request is older than 3x the lease TTL (heartbeats arrive at TTL/3,
//     so this means ~9 missed heartbeats);
//   - aging leases: a lease outstanding longer than 5x the TTL — the
//     worker is heartbeating (else the lease would have expired) but not
//     finishing, the classic silent-stall shape.
//
// There is no verdict on speed: a cell's schedules/s legitimately spans two
// orders of magnitude (a decision's cost grows with the thread count), and
// a hung target never submits, so its lease ages instead.
//
// Verdicts are wire-typed in internal/campaign (HealthReport) so the
// dashboard and surw dash render them without importing this package.

import (
	"fmt"
	"sort"
	"time"

	"surw/internal/campaign"
)

// The health rules' thresholds, as multiples of the lease TTL.
const (
	staleWorkerTTLs = 3
	agingLeaseTTLs  = 5
)

// healthLocked evaluates the two stall rules. Caller holds c.mu and has
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
		if ws.left {
			continue // took its leave: silence is what it promised
		}
		if age := now.Sub(ws.lastSeen); age > staleAfter {
			h.StaleWorkers++
			h.Issues = append(h.Issues, campaign.HealthIssue{
				Kind: campaign.HealthStaleWorker, Subject: name,
				Detail: fmt.Sprintf("no request for %s (deadline %s)", age.Round(time.Millisecond), staleAfter),
			})
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
