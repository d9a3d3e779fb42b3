// Package remote is the distributed-campaign subsystem: a coordinator
// that shards a campaign plan — every (target, algorithm, session) cell —
// across worker machines over a small HTTP/JSON protocol, and the worker
// loop that executes leased shards through internal/runner and streams
// records back. Stdlib only.
//
// The design leans entirely on two invariants the rest of the repository
// already holds:
//
//  1. Sessions are deterministic: a session's outcome is a pure function
//     of its SessionKey (runner.RunSession), independent of which machine
//     runs it, when, or how many times.
//  2. Aggregates are a pure function of the record set: the campaign
//     store canonicalizes every record through the wire format, and
//     aggregation reads records in canonical (cell, session) order.
//
// Together they make distribution an execution-order change only: a
// distributed campaign's aggregates.json is byte-identical to a local
// run's, and every failure mode reduces to "run a session again",
// which is safe (duplicates are dropped by key) and correct (reruns
// produce identical records).
//
// Protocol (all POST bodies and responses are JSON):
//
//	POST /v1/lease      {worker} → ResultResponse with no counts: a
//	                    worker's first request, and its next after a retry
//	                    hint; 400 for a body with a submission's members
//	POST /v1/heartbeat  HeartbeatRequest → 204, or 410 Gone if the lease
//	                    is no longer held (expired, completed, or the
//	                    coordinator restarted); carries the worker's
//	                    cumulative latency and atlas snapshots, and with
//	                    no lease_id is the worker's leave-taking
//	POST /v1/result     {worker, lease_id, busy_ms, records, spans} →
//	                    ResultResponse, idempotent (a record the store
//	                    already holds is counted and dropped); the reply
//	                    is the next lease reply too
//	GET  /v1/status     campaign.RemoteStatus snapshot, health verdicts
//	                    included
//	GET  /metrics       Prometheus text page (surw_remote_* and
//	                    surw_health_* gauges)
//
// A submission's records are run-store lines (campaign.AppendRecord), so
// submission is storage; busy_ms is the wall-clock the worker spent on the
// batch, feeding the per-worker utilization gauges; spans, there only when
// the lease carried a traceparent, are the worker's execute, session and
// prefix-replay spans of the lease's trace. The two requests are written
// by appendLeaseRequest and appendResultRequest and read by one parser,
// resultRequest.parse.
//
// Lease lifecycle: a batch of same-cell session indices is pending →
// leased (worker, TTL clock) → done. Batches are granted in plan order,
// requeued ones behind, and a leased session runs exactly as a local one
// does: there is no other grant order and no other way to run a session.
// A worker holds at most one lease: a grant first requeues the one it
// holds (its reply was lost, so it asked again), and its leave-taking
// requeues it too. A worker is its name, so a name must be unique among
// the workers running at once: two workers of one name take each other's
// lease at every grant, so a batch may run twice (the records stay right —
// the second copy is a duplicate — but the work is wasted).
// Heartbeats extend the TTL; a lease whose TTL lapses is
// requeued and its worker's later submissions are deduplicated by the
// store. Workers poll with exponential backoff and jitter, so a
// restarting coordinator sees its fleet drift back in without a
// thundering herd.
package remote

import (
	"surw/internal/atlas"
	"surw/internal/obs"
	"surw/internal/runner"
)

// Protocol endpoint paths.
const (
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathStatus    = "/v1/status"
)

// LeaseResponse carries a lease, a retry hint, or campaign completion.
// Exactly one of Done / Lease / RetryMillis is meaningful: Done means the
// plan is exhausted and the worker should exit; a nil Lease with
// RetryMillis set means everything is leased out right now — poll again.
type LeaseResponse struct {
	Done        bool   `json:"done,omitempty"`
	RetryMillis int64  `json:"retry_ms,omitempty"`
	Lease       *Lease `json:"lease,omitempty"`
}

// Lease is one batch of sessions from a single cell. It names the cell by
// its key, whose members sit flat beside the lease's own on the wire; the
// worker rebuilds the session keys with runner.KeyFor, which must
// round-trip to the coordinator's plan keys — the coordinator ships
// normalized values, so reconstruction is stable.
type Lease struct {
	ID string `json:"id"`
	runner.CellKey
	// Sessions are the session indices to execute.
	Sessions []int `json:"sessions"`
	// TTLMillis is the lease's time-to-live; the worker heartbeats at a
	// fraction of it to keep the lease alive.
	TTLMillis int64 `json:"ttl_ms"`
	// Traceparent, when non-empty, is the W3C trace context of the
	// coordinator's root "lease" span: the worker parents its execute /
	// session / prefix-replay spans under it and ships them back in its
	// submission, letting the coordinator assemble the end-to-end trace.
	// Empty when fleet tracing is off — workers then record no spans.
	Traceparent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest keeps a lease alive while its batch executes, and is
// how a worker's cumulative snapshots travel (not with every result: a
// fleet of short leases would decode a growing histogram set per lease).
// A worker sends one more, with no LeaseID, as Worker.Run returns: its
// leave-taking, which delivers what the last beat did not, gives back any
// lease it holds and tells the coordinator not to expect it again.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id,omitempty"`
	// Latencies is the worker's cumulative latency snapshot (all ops since
	// it started). The coordinator keeps the latest per worker and merges
	// those into the fleet view, so cumulative shipping never double-counts.
	Latencies map[string]obs.HistogramWire `json:"latencies,omitempty"`
	// Atlas is the worker's cumulative exploration-atlas snapshot, present
	// only when the worker runs with an atlas attached; kept like Latencies.
	Atlas []atlas.CellSnapshot `json:"atlas,omitempty"`
}

// ResultResponse reports how the submission landed and answers it as a
// lease request: the embedded LeaseResponse's members sit flat beside
// accepted and duplicates.
type ResultResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	LeaseResponse
}
