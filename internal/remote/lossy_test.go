package remote

// A drain over a lossy network: the first piece of ROADMAP item 6.2's chaos
// harness, and the net under the protocol change that made a submission's
// reply carry the next lease — a reply lost in flight then carries a lease
// away with it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/experiments"
)

// lossy is a transport under workers that loses and repeats requests,
// recognised by their bodies rather than their paths. A poll is a request
// with no lease_id: every worker's first poll is sent twice (the worker reads
// the second reply), and the first poll of the second worker to poll has its
// reply lost as well (the coordinator has granted it twice over, and the
// worker sees an error and polls again). A submission is a request with
// records: counted across every worker, the 7th, 14th, … reaches the
// coordinator and its reply is lost (the worker submits again), and the
// 11th, 22nd, … is sent twice. Other requests pass untouched.
type lossy struct {
	base  http.RoundTripper
	mu    sync.Mutex
	n     int            // submissions
	polls map[string]int // polls, by worker
	lost  bool           // a poll's reply was lost
}

var errReplyLost = errors.New("lossy: reply lost")

func (l *lossy) RoundTrip(req *http.Request) (*http.Response, error) {
	var body struct {
		Worker  string          `json:"worker"`
		LeaseID string          `json:"lease_id"`
		Records json.RawMessage `json:"records"`
	}
	if req.GetBody != nil {
		if err := readJSON(req, &body); err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	var double, lose bool
	switch {
	case req.GetBody == nil:
	case body.LeaseID == "":
		if l.polls == nil {
			l.polls = make(map[string]int)
		}
		l.polls[body.Worker]++
		double = l.polls[body.Worker] == 1
		lose = double && len(l.polls) == 2
		l.lost = l.lost || lose
	case body.Records != nil:
		l.n++
		double, lose = l.n%11 == 0, l.n%7 == 0
	}
	l.mu.Unlock()
	if double {
		first := req.Clone(req.Context())
		var err error
		if first.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
		if err := discard(l.base.RoundTrip(first)); err != nil {
			return nil, err
		}
	}
	resp, err := l.base.RoundTrip(req)
	if lose {
		if err := discard(resp, err); err != nil {
			return nil, err
		}
		return nil, errReplyLost
	}
	return resp, err
}

// readJSON decodes a copy of req's body into v.
func readJSON(req *http.Request, v any) error {
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

// discard reads a reply to its end and closes it.
func discard(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// TestLossyTransportDrain drains a plan through two workers whose polls and
// submissions are lost and repeated: the store must come out as a local
// run's, and no lease may be left to wait out its TTL — every lease a lost
// or superseded reply carried must be back in the queue at once. The TTL is
// a minute and the drain must end well inside it.
func TestLossyTransportDrain(t *testing.T) {
	const ttl = time.Minute
	sc := sctScale()
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := NewCoordinator(store, experiments.SCTPlan(sc), CoordinatorOptions{LeaseTTL: ttl, BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()
	tr := &lossy{base: http.DefaultTransport}
	ctx, cancel := context.WithTimeout(context.Background(), ttl/4)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w0", "w1"} {
		w := newTestWorker(name, srv.URL)
		w.Client = &http.Client{Transport: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
	if tr.n < 11 {
		t.Fatalf("%d submissions: the 7th and 11th never came", tr.n)
	}
	if len(tr.polls) != 2 || !tr.lost {
		t.Fatalf("polls by worker %v, a poll's reply lost: %v", tr.polls, tr.lost)
	}
	if rs := c.Status(); !c.Done() || rs.LeaseExpiries != 0 {
		t.Fatalf("done %v, %d lease expiries: a lease was stranded", c.Done(), rs.LeaseExpiries)
	}
	var agg bytes.Buffer
	if err := campaign.WriteAggregates(&agg, store); err != nil {
		t.Fatal(err)
	}
	if want := localAggregates(t, sc); !bytes.Equal(agg.Bytes(), want) {
		t.Fatalf("aggregates of the lossy drain differ from a local run's (%d bytes vs %d)", agg.Len(), len(want))
	}
}
