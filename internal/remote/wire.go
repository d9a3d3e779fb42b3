package remote

// The lease's four messages — the poll, LeaseResponse, the submission,
// ResultResponse — written and read by hand on storage the caller keeps,
// the way internal/campaign's wire.go does a record: the bytes are the
// ones encoding/json writes for the tagged structs in remote.go and, for
// the two requests, in wire_test.go, and the parsers accept nothing
// encoding/json would not decode to the same value (wire_test.go holds
// both to that). They are read by two parsers: a poll is a submission
// with no records, a LeaseResponse a ResultResponse with no counts. Both requests are answered with a
// ResultResponse. Heartbeats and the status pages are off the per-session
// path and stay on encoding/json.

import (
	"encoding/json"
	"io"
	"slices"
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

// appendResultResponse appends a ResultResponse, the reply to a poll and to
// a submission alike: a lease reply's members behind the two counts.
func appendResultResponse(dst []byte, r *ResultResponse) []byte {
	dst = wire.AppendInt(dst, `{"accepted":`, int64(r.Accepted))
	dst = wire.AppendInt(dst, `,"duplicates":`, int64(r.Duplicates))
	if r.Done {
		dst = append(dst, `,"done":true`...)
	}
	if r.RetryMillis != 0 {
		dst = wire.AppendInt(dst, `,"retry_ms":`, r.RetryMillis)
	}
	if l := r.Lease; l != nil {
		dst = append(dst, `,"lease":{"id":`...)
		dst = wire.AppendString(dst, l.ID)
		dst = campaign.AppendCellHead(append(dst, ','), l.CellKey)
		dst = campaign.AppendCellFlags(dst, l.CellKey)
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
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendResultRequest appends a submission whose records are the
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

var (
	leaseFields          = append(slices.Clip(campaign.CellFields), "id", "sessions", "ttl_ms", "traceparent")
	resultRequestFields  = []string{"worker", "lease_id", "busy_ms", "records", "spans"}
	resultResponseFields = []string{"accepted", "duplicates", "done", "retry_ms", "lease"}
)

// parseResultResponse reads a submission's reply, or a lease reply — one
// with no counts — into r. A lease it carries lands in l — on l's storage:
// the sessions' array is reused and a target or algorithm l already names
// is not copied again — and r.Lease points at it.
func parseResultResponse(p *wire.Parser, body []byte, r *ResultResponse, l *Lease) error {
	*r = ResultResponse{}
	var o wire.Object
	p.Reset(body)
	for p.Field(&o, resultResponseFields) {
		switch o.Index {
		case 0:
			r.Accepted = p.IntN()
		case 1:
			r.Duplicates = p.IntN()
		case 2:
			r.Done = p.Bool()
		case 3:
			r.RetryMillis = p.Int()
		case 4:
			if p.Null() {
				continue
			}
			prev := l.CellKey
			name := func(b []byte) string {
				if string(b) == prev.Target {
					return prev.Target
				} else if string(b) == prev.Algorithm {
					return prev.Algorithm
				}
				return string(b)
			}
			*l = Lease{Sessions: l.Sessions[:0]}
			r.Lease = l
			var lo wire.Object
			for p.Field(&lo, leaseFields) {
				switch lo.Index - len(campaign.CellFields) {
				case 0:
					l.ID = string(p.String())
				case 1:
					var a wire.Array
					for p.Elem(&a) {
						l.Sessions = append(l.Sessions, p.IntN())
					}
				case 2:
					l.TTLMillis = p.Int()
				case 3:
					l.Traceparent = string(p.String())
				default:
					campaign.ReadCellField(p, &l.CellKey, lo.Index, name)
				}
			}
		}
	}
	return p.End()
}

// resultRequest is a submission as the coordinator reads one: the names
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
				r.records = append(r.records, submitted{key: k, sess: s})
			}
		case 4:
			if !p.Null() {
				r.spans = p.Raw()
			}
		}
	}
	return p.End()
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
