package remote

// The lease's four messages — LeaseRequest, LeaseResponse, ResultRequest,
// ResultResponse — written and read by hand on storage the caller keeps,
// the way internal/campaign's wire.go does a record: the bytes are the
// ones encoding/json writes for the tagged structs in remote.go, and the
// parsers accept nothing encoding/json would not decode to the same value
// (wire_test.go holds both to that). Heartbeats, /v1/classes and the status
// pages are off the per-session path and stay on encoding/json.

import (
	"encoding/json"
	"io"
	"strconv"

	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/wire"
)

func appendLeaseRequest(dst []byte, worker string) []byte {
	dst = append(dst, `{"worker":`...)
	dst = wire.AppendString(dst, worker)
	return append(dst, '}')
}

func appendLeaseResponse(dst []byte, r *LeaseResponse) []byte {
	dst = append(dst, '{')
	n := len(dst)
	if r.Done {
		dst = append(dst, `"done":true,`...)
	}
	if r.RetryMillis != 0 {
		dst = append(wire.AppendInt(dst, `"retry_ms":`, r.RetryMillis), ',')
	}
	if l := r.Lease; l != nil {
		dst = append(dst, `"lease":{"id":`...)
		dst = wire.AppendString(dst, l.ID)
		dst = append(dst, `,"target":`...)
		dst = wire.AppendString(dst, l.Target)
		dst = append(dst, `,"algorithm":`...)
		dst = wire.AppendString(dst, l.Algorithm)
		dst = wire.AppendInt(dst, `,"limit":`, int64(l.Limit))
		dst = wire.AppendInt(dst, `,"seed":`, l.Seed)
		if l.StopAtFirstBug {
			dst = append(dst, `,"stop_at_first_bug":true`...)
		}
		if l.Coverage {
			dst = append(dst, `,"coverage":true`...)
		}
		if l.CoverageEvery != 0 {
			dst = wire.AppendInt(dst, `,"coverage_every":`, int64(l.CoverageEvery))
		}
		if l.ProfileRuns != 0 {
			dst = wire.AppendInt(dst, `,"profile_runs":`, int64(l.ProfileRuns))
		}
		if l.Sessions == nil {
			dst = append(dst, `,"sessions":null`...)
		} else {
			dst = append(dst, `,"sessions":[`...)
			for i, s := range l.Sessions {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(s), 10)
			}
			dst = append(dst, ']')
		}
		dst = wire.AppendInt(dst, `,"ttl_ms":`, l.TTLMillis)
		if l.Traceparent != "" {
			dst = append(dst, `,"traceparent":`...)
			dst = wire.AppendString(dst, l.Traceparent)
		}
		dst = append(dst, "},"...)
	}
	if len(dst) > n {
		dst = dst[:len(dst)-1] // the last member's comma
	}
	return append(dst, '}')
}

// appendResultRequest appends a ResultRequest whose records are the
// sessions of a lease, in the lease's order. Spans, there only when the
// lease was traced, go through encoding/json.
func appendResultRequest(dst []byte, worker, leaseID string, busyMillis int64, keys []runner.SessionKey, sessions []*runner.Session, spans []obs.Span) ([]byte, error) {
	dst = append(dst, `{"worker":`...)
	dst = wire.AppendString(dst, worker)
	dst = append(dst, `,"lease_id":`...)
	dst = wire.AppendString(dst, leaseID)
	dst = wire.AppendInt(dst, `,"busy_ms":`, busyMillis)
	dst = append(dst, `,"records":[`...)
	for i, s := range sessions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = campaign.AppendRecord(dst, keys[i], s)
	}
	dst = append(dst, ']')
	if len(spans) > 0 {
		b, err := json.Marshal(spans)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"spans":`...), b...)
	}
	return append(dst, '}'), nil
}

func appendResultResponse(dst []byte, r ResultResponse) []byte {
	dst = wire.AppendInt(dst, `{"accepted":`, int64(r.Accepted))
	dst = wire.AppendInt(dst, `,"duplicates":`, int64(r.Duplicates))
	return append(dst, '}')
}

var (
	leaseRequestFields   = []string{"worker"}
	leaseResponseFields  = []string{"done", "retry_ms", "lease"}
	leaseFields          = []string{"id", "target", "algorithm", "limit", "seed", "stop_at_first_bug", "coverage", "coverage_every", "profile_runs", "sessions", "ttl_ms", "traceparent"}
	resultRequestFields  = []string{"worker", "lease_id", "busy_ms", "records", "spans"}
	resultResponseFields = []string{"accepted", "duplicates"}
)

// parseLeaseRequest appends the worker's name to dst: it is looked up, not
// kept, so it stays bytes.
func parseLeaseRequest(p *wire.Parser, body, dst []byte) ([]byte, error) {
	var o wire.Object
	p.Reset(body)
	for p.Field(&o, leaseRequestFields) {
		dst = append(dst, p.String()...)
	}
	return dst, p.End()
}

// kept returns b as a string: prev itself when that is what b spells, so a
// run of leases of one cell names its target and algorithm once.
func kept(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// parseLeaseResponse reads a lease reply into r. A lease it carries lands
// in l — on l's storage: the sessions' array is reused and a target or
// algorithm l already names is not copied again — and r.Lease points at it.
func parseLeaseResponse(p *wire.Parser, body []byte, r *LeaseResponse, l *Lease) error {
	*r = LeaseResponse{}
	var o wire.Object
	p.Reset(body)
	for p.Field(&o, leaseResponseFields) {
		switch o.Index {
		case 0:
			r.Done = p.Bool()
		case 1:
			r.RetryMillis = p.Int()
		case 2:
			if p.Null() {
				continue
			}
			target, algorithm := l.Target, l.Algorithm
			*l = Lease{Sessions: l.Sessions[:0]}
			r.Lease = l
			var lo wire.Object
			for p.Field(&lo, leaseFields) {
				switch lo.Index {
				case 0:
					l.ID = string(p.String())
				case 1:
					l.Target = kept(p.String(), target)
				case 2:
					l.Algorithm = kept(p.String(), algorithm)
				case 3:
					l.Limit = p.IntN()
				case 4:
					l.Seed = p.Int()
				case 5:
					l.StopAtFirstBug = p.Bool()
				case 6:
					l.Coverage = p.Bool()
				case 7:
					l.CoverageEvery = p.IntN()
				case 8:
					l.ProfileRuns = p.IntN()
				case 9:
					var a wire.Array
					for p.Elem(&a) {
						l.Sessions = append(l.Sessions, p.IntN())
					}
				case 10:
					l.TTLMillis = p.Int()
				case 11:
					l.Traceparent = string(p.String())
				}
			}
		}
	}
	return p.End()
}

// resultRequest is a ResultRequest as the coordinator reads one: the names
// as bytes (they are looked up, not kept), each record parsed straight to
// its key and session, the spans left as they came. Its slices are storage
// reused from one request to the next.
type resultRequest struct {
	worker, leaseID []byte
	busyMillis      int64
	records         []submitted
	spans           []byte // the "spans" value, nil when there is none
}

type submitted struct {
	key  runner.SessionKey
	sess *runner.Session
}

// parse reads body into r. A record's target and algorithm found in names
// are those strings, not copies.
func (r *resultRequest) parse(p *wire.Parser, body []byte, names map[string]string) error {
	r.worker, r.leaseID, r.busyMillis, r.records, r.spans = r.worker[:0], r.leaseID[:0], 0, r.records[:0], nil
	var o wire.Object
	p.Reset(body)
	for p.Field(&o, resultRequestFields) {
		switch o.Index {
		case 0:
			r.worker = append(r.worker, p.String()...)
		case 1:
			r.leaseID = append(r.leaseID, p.String()...)
		case 2:
			r.busyMillis = p.Int()
		case 3:
			var a wire.Array
			for p.Elem(&a) {
				k, s := campaign.ReadRecord(p, names)
				r.records = append(r.records, submitted{k, s})
			}
		case 4:
			if !p.Null() {
				r.spans = p.Raw()
			}
		}
	}
	return p.End()
}

func parseResultResponse(p *wire.Parser, body []byte) (ResultResponse, error) {
	var r ResultResponse
	var o wire.Object
	p.Reset(body)
	for p.Field(&o, resultResponseFields) {
		switch o.Index {
		case 0:
			r.Accepted = p.IntN()
		case 1:
			r.Duplicates = p.IntN()
		}
	}
	return r, p.End()
}

// readInto reads r to its end into dst's storage, growing it as needed.
func readInto(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
