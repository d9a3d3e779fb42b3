package campaign

// Fleet health: the coordinator's stall-detection verdicts in a wire form
// the dashboard and /api/health can serve: wire types and their renderer.
// The rules that fill them are internal/remote/health.go's, the only rule
// set there is; the types are here for the same layering reason as
// RemoteStatus — remote imports campaign, never the other way — and, like
// RemoteStatus, health is live-only: it never appears in aggregates.json.

import "surw/internal/obs"

// Health issue kinds.
const (
	HealthStaleWorker = "stale_worker" // no request from the worker for too long
	HealthSlowCell    = "slow_cell"    // cell schedules/s below a fraction of the fleet median
	HealthAgingLease  = "aging_lease"  // lease outstanding far beyond its TTL
)

// HealthIssue is one flagged condition.
type HealthIssue struct {
	Kind string `json:"kind"` // one of the Health* constants
	// Subject names what is unhealthy: a worker name, a cell "target/alg",
	// or a lease ID.
	Subject string `json:"subject"`
	// Detail is a human-readable explanation with the numbers that tripped
	// the rule.
	Detail string `json:"detail"`
}

// HealthReport is one evaluation of the fleet health rules.
type HealthReport struct {
	Healthy      bool `json:"healthy"`
	StaleWorkers int  `json:"stale_workers"`
	SlowCells    int  `json:"slow_cells"`
	AgingLeases  int  `json:"aging_leases"`
	// FleetMedianSchedulesPerSec anchors the slow-cell rule; 0 until enough
	// cells have reported throughput.
	FleetMedianSchedulesPerSec float64       `json:"fleet_median_schedules_per_sec"`
	Issues                     []HealthIssue `json:"issues,omitempty"`
}

// prom renders the report as surw_health_* gauges.
func (h *HealthReport) prom(p *obs.Prom) {
	p.Gauge("surw_health_ok", "1 when no health rule is tripped.").Bool(h.Healthy)
	p.Gauge("surw_health_stale_workers", "Workers with no request inside the staleness deadline.").Int(int64(h.StaleWorkers))
	p.Gauge("surw_health_slow_cells", "Cells with schedule throughput below the slow-cell fraction of the fleet median.").Int(int64(h.SlowCells))
	p.Gauge("surw_health_aging_leases", "Leases outstanding beyond the aging deadline.").Int(int64(h.AgingLeases))
	p.Gauge("surw_health_fleet_median_schedules_per_second", "Median per-cell schedule throughput across the fleet.").Float(h.FleetMedianSchedulesPerSec)
}
