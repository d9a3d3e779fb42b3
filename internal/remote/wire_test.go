package remote

// The lease messages' proof, after internal/campaign's for the record: the
// hand encoders and parsers of wire.go held to encoding/json over the
// tagged structs of remote.go — on bodies a parent build wrote, under
// fuzzing, and across a fleet whose two ends spell their JSON differently.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/wire"
	"surw/internal/wire/wiretest"
)

func goldenFile(t testing.TB, path ...string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n")) // each with its newline
	return lines[:len(lines)-1]
}

// goldenRecords are the sessions of internal/campaign's golden lines, as a
// worker holds them when it submits.
func goldenRecords(t testing.TB) (keys []runner.SessionKey, sessions []*runner.Session) {
	for _, line := range goldenFile(t, "..", "campaign", "testdata", "runs_line.golden") {
		k, s, err := campaign.ParseRecord(line, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys, sessions = append(keys, k), append(sessions, s)
	}
	return keys, sessions
}

func goldenSpans() []obs.Span {
	return []obs.Span{
		{Trace: obs.TraceID{1, 2, 3}, ID: obs.SpanID{4, 5}, Parent: obs.SpanID{6}, Name: "execute", Track: "w<0>", Start: 1700000000000000000, Dur: 1234567, Lease: "l000042", Target: "CS/reorder_10", Alg: "PCT-3", N: 4},
		{Trace: obs.TraceID{1, 2, 3}, ID: obs.SpanID{7}, Parent: obs.SpanID{4, 5}, Name: "session", Track: "w<0>", Start: 1700000000000001000, Dur: 99, Session: 20},
	}
}

func goldenLeaseResponses() []LeaseResponse {
	return []LeaseResponse{
		{Done: true},
		{RetryMillis: 500},
		{},
		{Lease: &Lease{ID: "l000001", Target: "CS/reorder_10", Algorithm: "PCT-3", Limit: 2000, Seed: 1, Sessions: []int{0, 1, 2, 19}, TTLMillis: 30000}},
		{Lease: &Lease{ID: "l123456", Target: "t/<x>", Algorithm: "URW", Limit: 1, Seed: -9, StopAtFirstBug: true, Coverage: true, CoverageEvery: 50, ProfileRuns: 3,
			Sessions: []int{7}, TTLMillis: 1, Traceparent: "00-01020300000000000000000000000000-0405000000000000-01"}},
		{Lease: &Lease{Sessions: nil}},
		{Lease: &Lease{Sessions: []int{}}},
	}
}

// TestMessageGolden holds the four encoders to the bodies the parent
// commit wrote for the same messages — requests through json.Marshal,
// replies through json.NewEncoder, newline and all. The golden files were
// generated there and are not regenerated here.
func TestMessageGolden(t *testing.T) {
	keys, sessions := goldenRecords(t)
	var got [][]byte
	for _, worker := range []string{"w<0>", "", "bad\xffname"} {
		got = append(got, append(appendLeaseRequest(nil, worker), '\n'))
	}
	for _, r := range goldenLeaseResponses() {
		got = append(got, append(appendLeaseResponse(nil, &r), '\n'))
	}
	for _, r := range []ResultResponse{{Accepted: 4}, {Duplicates: 12}} {
		got = append(got, append(appendResultResponse(nil, r), '\n'))
	}
	compareLines(t, "lease_bodies.golden", got)

	got = nil
	for _, req := range []struct {
		worker, lease string
		busy          int64
		n             int
		spans         []obs.Span
	}{
		{"w<0>", "l000042", 1234, len(keys), nil},
		{"w1", "l000043", 0, 1, goldenSpans()},
		{"", "", -5, 0, nil},
	} {
		body, err := appendResultRequest(nil, req.worker, req.lease, req.busy, keys[:req.n], sessions[:req.n], req.spans)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, append(body, '\n'))
	}
	compareLines(t, "result_body.golden", got)
}

func compareLines(t *testing.T, name string, got [][]byte) {
	t.Helper()
	want := goldenFile(t, "testdata", name)
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, the golden file holds %d", name, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, got[i], want[i])
		}
	}
}

// sameLease compares leases as the protocol means them: no sessions is no
// sessions, null or [].
func sameLease(a, b *Lease) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Sessions, y.Sessions = nil, nil
	return reflect.DeepEqual(x, y) && len(a.Sessions) == len(b.Sessions) && (len(a.Sessions) == 0 || reflect.DeepEqual(a.Sessions, b.Sessions))
}

// checkBody holds the four parsers to their contract on one body: what one
// accepts, json.Unmarshal into the message's struct accepts, to the same
// value. It reports which parsers accepted, in the order lease request,
// lease response, result request, result response.
func checkBody(t *testing.T, body []byte) (accepted [4]bool) {
	t.Helper()
	var p wire.Parser
	if worker, err := parseLeaseRequest(&p, body, nil); err == nil {
		accepted[0] = true
		var want LeaseRequest
		if jerr := json.Unmarshal(body, &want); jerr != nil || want.Worker != string(worker) {
			t.Fatalf("lease request %s:\nparsed worker %q, encoding/json %+v (%v)", body, worker, want, jerr)
		}
	}
	var resp LeaseResponse
	lease := Lease{ID: "stale", Target: "stale", Algorithm: "stale", Limit: 9, Sessions: []int{9, 9, 9}, Traceparent: "stale", StopAtFirstBug: true}
	if err := parseLeaseResponse(&p, body, &resp, &lease); err == nil {
		accepted[1] = true
		var want LeaseResponse
		if jerr := json.Unmarshal(body, &want); jerr != nil || want.Done != resp.Done || want.RetryMillis != resp.RetryMillis || !sameLease(want.Lease, resp.Lease) {
			t.Fatalf("lease response %s:\nparsed %+v (lease %+v), encoding/json %+v (lease %+v, %v)", body, resp, resp.Lease, want, want.Lease, jerr)
		}
	}
	req := resultRequest{worker: []byte("stale"), leaseID: []byte("stale"), busyMillis: 9, records: make([]submitted, 3), spans: []byte("stale")}
	if err := req.parse(&p, body, nil); err == nil {
		if spans, err := decodeSpans(req.spans); err == nil {
			accepted[2] = true
			var want ResultRequest
			jerr := json.Unmarshal(body, &want)
			ok := jerr == nil && want.Worker == string(req.worker) && want.LeaseID == string(req.leaseID) && want.BusyMillis == req.busyMillis &&
				len(want.Records) == len(req.records) && len(want.Spans) == len(spans) && (len(spans) == 0 || reflect.DeepEqual(want.Spans, spans))
			for i := 0; ok && i < len(req.records); i++ {
				ok = want.Records[i].Key == req.records[i].key && reflect.DeepEqual(want.Records[i].Session, req.records[i].sess)
			}
			if !ok {
				t.Fatalf("result request %s:\nparsed %+v, encoding/json %+v (%v)", body, req, want, jerr)
			}
		}
	}
	if r, err := parseResultResponse(&p, body); err == nil {
		accepted[3] = true
		var want ResultResponse
		if jerr := json.Unmarshal(body, &want); jerr != nil || want != r {
			t.Fatalf("result response %s:\nparsed %+v, encoding/json %+v (%v)", body, r, want, jerr)
		}
	}
	return accepted
}

// FuzzLeaseMessages is FuzzRecordCodec for the lease's four messages. The
// input is read as a body off the wire, given to all four parsers
// (checkBody), and as the recipe of one message of each kind, which must be
// encoded to encoding/json's bytes, parsed back from them and from any
// respelling of them, and refused when cut short.
func FuzzLeaseMessages(f *testing.F) {
	for _, name := range []string{"lease_bodies.golden", "result_body.golden"} {
		for _, line := range goldenFile(f, "testdata", name) {
			f.Add(line)
		}
	}
	for _, seed := range []string{
		"", "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0",
		`null`, `{"lease":null,"done":false}`, `{"lease":{"sessions":[1,2.0]}}`, `{"lease":{},"lease":{}}`, `{"Worker":"w"}`, `{"worker":"w"} x`,
		`{"records":[null]}`, `{"records":null,"spans":null}`, `{"records":[],"spans":[{"trace":"zz"}]}`, `{"records":[],"spans":{}}`, `{"accepted":1e3}`,
		`{"records":[{"v":1,"key":{},"session":{}},{"v":2,"key":{},"session":{}}]}`,
	} {
		f.Add([]byte(seed))
	}
	keys, sessions := goldenRecords(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBody(t, data)

		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		num := func() int64 {
			switch b := next(); b % 6 {
			case 0:
				return 0
			case 1:
				return math.MaxInt64
			case 2:
				return math.MinInt64
			default:
				return int64(b) - 100
			}
		}
		text := func() string {
			pool := []string{"", "w0", "l000001", "CS/reorder_10", "<&>", "\"\\", "\u2028é😀", "\xff", "\x00\x1f", "00-01020300000000000000000000000000-0405000000000000-01"}
			return pool[int(next())%len(pool)] + pool[int(next())%len(pool)]
		}
		flags := next()
		lease := &Lease{ID: text(), Target: text(), Algorithm: text(), Limit: int(num()), Seed: num(), StopAtFirstBug: flags&1 != 0, Coverage: flags&2 != 0,
			CoverageEvery: int(num()), ProfileRuns: int(num()), TTLMillis: num(), Traceparent: text()}
		if flags&4 != 0 {
			lease.Sessions = []int{}
			for n := next() % 4; n > 0; n-- {
				lease.Sessions = append(lease.Sessions, int(num()))
			}
		}
		leaseResp := LeaseResponse{Done: flags&8 != 0, RetryMillis: num()}
		if flags&16 != 0 {
			leaseResp.Lease = lease
		}
		n := int(next()) % (len(keys) + 1)
		result := ResultRequest{Worker: text(), LeaseID: text(), BusyMillis: num(), Records: []campaign.Record{}}
		for i := 0; i < n; i++ {
			result.Records = append(result.Records, campaign.NewRecord(keys[i], sessions[i]))
		}
		if flags&32 != 0 {
			result.Spans = goldenSpans()[:1+int(flags>>7)]
		}
		resultResp := ResultResponse{Accepted: int(num()), Duplicates: int(num())}
		resultBody, err := appendResultRequest(nil, result.Worker, result.LeaseID, result.BusyMillis, keys[:n], sessions[:n], result.Spans)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(len(data))))
		for kind, m := range []struct {
			oracle any
			got    []byte
		}{
			{LeaseRequest{Worker: lease.ID}, appendLeaseRequest(nil, lease.ID)},
			{leaseResp, appendLeaseResponse(nil, &leaseResp)},
			{result, resultBody},
			{resultResp, appendResultResponse(nil, resultResp)},
		} {
			want, err := json.Marshal(m.oracle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.got, want) {
				t.Fatalf("message kind %d differs from json.Marshal:\n got %s\nwant %s", kind, m.got, want)
			}
			if !checkBody(t, m.got)[kind] {
				t.Fatalf("message kind %d: its parser refuses its encoder's\n%s", kind, m.got)
			}
			for i := 0; i < 3; i++ {
				if respelt := wiretest.Respell(m.got, rng); !checkBody(t, respelt)[kind] {
					t.Fatalf("message kind %d: its parser refuses the respelling\n%s\nof\n%s", kind, respelt, m.got)
				}
			}
			for cut := 0; cut < len(m.got); cut++ {
				if checkBody(t, m.got[:cut]) != [4]bool{} {
					t.Fatalf("message kind %d cut at byte %d is accepted:\n%s", kind, cut, m.got[:cut])
				}
			}
		}
	})
}

// localAggregates runs sc's plan in this process and returns its
// aggregates.json.
func localAggregates(t *testing.T, sc experiments.Scale) []byte {
	t.Helper()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sc.Store = store
	experiments.SCTBench(sc, nil)
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	return agg.Bytes()
}

// drain runs workers against base until the plan is done.
func drain(t *testing.T, workers ...*Worker) {
	t.Helper()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
}

// respeller stands between workers and a coordinator and respells every
// lease and result body both ways — member order, white space, escapes,
// members neither side knows — so each end reads what some other writer of
// the protocol (a parent build's encoding/json among them) could send it.
type respeller struct {
	next http.Handler
	mu   sync.Mutex
	rng  *rand.Rand
}

func (h *respeller) respell(doc []byte) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return wiretest.Respell(doc, h.rng)
}

func (h *respeller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != PathLease && r.URL.Path != PathResult {
		h.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(h.respell(body)))
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	reply := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		reply = append(h.respell(reply), '\n')
	}
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	w.Write(reply)
}

// TestWireSkew drains a traced campaign through a respeller: the store must
// come out as a local run's, and every lease's trace complete — the
// worker's spans in the result body and its traceparent header both made
// it across.
func TestWireSkew(t *testing.T) {
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := NewCoordinator(store, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 2, Tracing: true})
	srv := httptest.NewServer(&respeller{next: c, rng: rand.New(rand.NewSource(1))})
	defer srv.Close()
	drain(t, newTestWorker("w<0>", srv.URL), newTestWorker("w\"1\u2028", srv.URL))
	if !c.Done() {
		t.Fatal("plan not drained")
	}
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the respelt fleet differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
	if complete, total, firstErr := obs.CountComplete(c.Spans()); total == 0 || complete != total {
		t.Fatalf("%d/%d traces complete: %v", complete, total, firstErr)
	}
}

// poisoner is a worker's transport that, before every request goes out,
// overwrites everything the lease loop keeps from lease to lease and must
// not read again: the spare room of its buffers and, between leases, the
// last lease itself. It runs on the lease loop's goroutine (RoundTrip is
// called from Do), so the race detector vouches for the ownership rule too.
type poisoner struct {
	w    *Worker
	base http.RoundTripper
}

func poison(b []byte) {
	for i := range b {
		b[i] = "\"}]X"[i%4]
	}
}

func (p *poisoner) RoundTrip(req *http.Request) (*http.Response, error) {
	w := p.w
	poison(w.line.buf[len(w.line.buf):cap(w.line.buf)])
	poison(w.line.reply[:cap(w.line.reply)])
	if req.URL.Path == PathLease {
		l := &w.lease
		sessions := l.Sessions[:cap(l.Sessions)]
		for i := range sessions {
			sessions[i] = -7
		}
		*l = Lease{ID: "poison", Target: l.Target + "-poison", Algorithm: "poison", Limit: -7, Seed: -7, StopAtFirstBug: true, Coverage: true,
			CoverageEvery: -7, ProfileRuns: -7, Sessions: l.Sessions, TTLMillis: -7, Traceparent: "poison"}
		for i := range w.keys[:cap(w.keys)] {
			w.keys[:cap(w.keys)][i] = runner.SessionKey{Target: "poison", Session: -7}
		}
		for i := range w.sessions[:cap(w.sessions)] {
			w.sessions[:cap(w.sessions)][i] = &runner.Session{FirstBug: -7, Bugs: map[string]int{"poison": 1}}
		}
	}
	return p.base.RoundTrip(req)
}

// TestWarmLeasesShareNothing runs leases of different cells back to back
// through one worker (one session a lease, so the lease, its keys and both
// buffers are reused dozens of times, across every cell boundary of the
// plan) with a poisoner in between: the store must come out as a local
// run's.
func TestWarmLeasesShareNothing(t *testing.T) {
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := NewCoordinator(store, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()
	w := newTestWorker("w0", srv.URL)
	w.Client = &http.Client{Transport: &poisoner{w: w, base: http.DefaultTransport}}
	drain(t, w)
	if !c.Done() {
		t.Fatal("plan not drained")
	}
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the poisoned drain differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
}

// padding reads as n bytes of "x".
func padding(n int) io.Reader { return io.LimitReader(xs{}, int64(n)) }

type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestOversizeBodyIsRefused: a body past maxBody gets 413 on every POST
// endpoint and changes nothing, and a worker is told so in as many words.
func TestOversizeBodyIsRefused(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(2), CoordinatorOptions{BatchSize: 2})
	srv := httptest.NewServer(c)
	defer srv.Close()
	l := leaseFor(t, srv.URL, "a").Lease

	// A result that is accepted with a little padding and refused with a
	// lot: the limit refuses it, not the member nobody knows.
	recs, err := json.Marshal(sessionRecordsFor(l))
	if err != nil {
		t.Fatal(err)
	}
	head, tail := `{"worker":"a","lease_id":"`+l.ID+`","busy_ms":1,"records":`+string(recs)+`,"pad":"`, `"}`
	post := func(path string, pad int) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", io.MultiReader(strings.NewReader(head), padding(pad), strings.NewReader(tail)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{PathResult, PathLease, PathHeartbeat} {
		if code := post(path, maxBody); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d for a body over the limit, want 413", path, code)
		}
	}
	if st.len() != 0 {
		t.Fatalf("an oversize result stored %d records", st.len())
	}
	if code := post(PathResult, 100); code != http.StatusOK || st.len() != 2 {
		t.Fatalf("the same result under the limit: status %d, %d records stored", code, st.len())
	}

	// The worker's side: 413 is an error like any other 4xx but 410.
	w := newTestWorker("a", srv.URL)
	if err := w.line.open(context.Background(), w.client(), srv.URL); err != nil {
		t.Fatal(err)
	}
	w.line.buf = append(append(w.line.begin(), head...), make([]byte, maxBody)...)
	_, err = w.line.post(w.line.result, "")
	if err == nil || err == errLeaseGone || !strings.Contains(err.Error(), "413") {
		t.Fatalf("posting an oversize result: err = %v, want the 413 verbatim", err)
	}
}
