package campaign

// Live view of a distributed campaign, published by the internal/remote
// coordinator through Server.SetRemote. Defined here (not in remote) so
// the dashboard can render worker tables without importing the
// coordinator; remote imports campaign for the record codec, never
// the other way around.
//
// Like MetricsSnapshot, RemoteStatus is live-only: it describes one run's
// execution (which machines did the work, how leases flowed), never the
// stored results, so it appears in /api/campaign and /metrics but not in
// aggregates.json — distribution must leave the aggregate bytes untouched.

import (
	"io"

	"surw/internal/obs"
)

// RemoteStatus is a point-in-time snapshot of a coordinator.
type RemoteStatus struct {
	// SessionsPlanned / SessionsDone count shard units: every (target,
	// algorithm, session) cell of the campaign plan.
	SessionsPlanned int `json:"sessions_planned"`
	SessionsDone    int `json:"sessions_done"`
	// InFlightLeases / PendingBatches describe the lease queue.
	InFlightLeases int `json:"in_flight_leases"`
	PendingBatches int `json:"pending_batches"`
	// LeaseExpiries counts leases that timed out and were requeued (worker
	// presumed lost); DuplicateResults counts submitted session records
	// dropped because the store already held them.
	LeaseExpiries    int64 `json:"lease_expiries"`
	DuplicateResults int64 `json:"duplicate_results"`
	// Workers lists every worker that ever contacted the coordinator,
	// sorted by name.
	Workers []RemoteWorker `json:"workers,omitempty"`
	// Latencies is the fleet-wide latency view (the coordinator's own
	// histograms merged with the latest snapshot from each worker), sorted
	// by operation name.
	Latencies []obs.LatencySnap `json:"latencies,omitempty"`
	// Health is the stall-detection report, present when the coordinator
	// runs the health engine.
	Health *HealthReport `json:"health,omitempty"`
}

// RemoteWorker is the coordinator's view of one worker.
type RemoteWorker struct {
	Name string `json:"name"`
	// Sessions counts session records this worker submitted that were
	// accepted (duplicates excluded).
	Sessions int `json:"sessions"`
	// BusySeconds is the worker-reported wall-clock spent executing
	// batches; Utilization divides it by the worker's lifetime as seen by
	// the coordinator (first contact → now).
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
	// Leases is the number of leases the worker currently holds.
	Leases int `json:"leases"`
	// SecondsSinceSeen is the age of the worker's last request.
	SecondsSinceSeen float64 `json:"seconds_since_seen"`
}

// WritePrometheus renders the snapshot as Prometheus text-format gauges,
// shared by the coordinator's own /metrics and the dashboard's.
func (rs *RemoteStatus) WritePrometheus(w io.Writer) error {
	var p obs.Prom
	p.Gauge("surw_remote_sessions_planned", "Shard units in the distributed campaign plan.").Int(int64(rs.SessionsPlanned))
	p.Gauge("surw_remote_sessions_done", "Shard units completed (stored).").Int(int64(rs.SessionsDone))
	p.Gauge("surw_remote_inflight_leases", "Leases currently held by workers.").Int(int64(rs.InFlightLeases))
	p.Gauge("surw_remote_pending_batches", "Batches waiting to be leased.").Int(int64(rs.PendingBatches))
	p.Counter("surw_remote_lease_expiries_total", "Leases expired and requeued.").Int(rs.LeaseExpiries)
	p.Counter("surw_remote_duplicate_results_total", "Submitted records dropped as duplicates.").Int(rs.DuplicateResults)
	p.Gauge("surw_remote_workers", "Workers that have contacted the coordinator.").Int(int64(len(rs.Workers)))
	sessions := p.Counter("surw_remote_worker_sessions_total", "Accepted session records per worker.")
	busy := p.Counter("surw_remote_worker_busy_seconds_total", "Worker-reported execution time.")
	utilization := p.Gauge("surw_remote_worker_utilization", "Busy time over worker lifetime, 0-1.")
	leases := p.Gauge("surw_remote_worker_inflight_leases", "Leases currently held per worker.")
	for _, wk := range rs.Workers {
		sessions.Int(int64(wk.Sessions), "worker", wk.Name)
		busy.Fixed(wk.BusySeconds, 3, "worker", wk.Name)
		utilization.Fixed(wk.Utilization, 4, "worker", wk.Name)
		leases.Int(int64(wk.Leases), "worker", wk.Name)
	}
	p.Histogram("surw_fleet_latency_seconds",
		"Fleet-wide operation latency (coordinator plus latest worker snapshots).",
		rs.Latencies)
	if rs.Health != nil {
		rs.Health.prom(&p)
	}
	return p.Flush(w)
}
