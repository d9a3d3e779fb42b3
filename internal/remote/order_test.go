package remote

// Tests for the grant order and the fleet atlas: leases leave in plan
// order — from a fresh coordinator and from one restarted over a
// half-filled store — and a two-worker campaign with worker atlases
// assembles a merged fleet atlas with drift verdicts while writing
// byte-identical aggregates.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/runner"
)

// grantedKeys polls leases for one worker until the queue is drained (the
// granted leases are held, never submitted) and returns the session keys
// they name, in grant order.
func grantedKeys(t *testing.T, url string) []runner.SessionKey {
	t.Helper()
	var keys []runner.SessionKey
	for {
		resp := leaseFor(t, url, "w")
		if resp.Lease == nil {
			return keys
		}
		l := resp.Lease
		for _, s := range l.Sessions {
			keys = append(keys, runner.SessionKey{
				Target: l.Target, Algorithm: l.Algorithm, Limit: l.Limit, Seed: l.Seed, Session: s,
				StopAtFirstBug: l.StopAtFirstBug, Coverage: l.Coverage,
				CoverageEvery: l.CoverageEvery, ProfileRuns: l.ProfileRuns,
			})
		}
	}
}

// TestLeaseOrderIsPlanOrder: the sessions a coordinator grants, lease after
// lease, are its plan's unstored keys in plan order — the one grant order
// there is — whether the store started empty or a coordinator is restarted
// over one that holds every other session already.
func TestLeaseOrderIsPlanOrder(t *testing.T) {
	plan := experiments.SCTPlan(covScale())
	if len(plan) < 12 {
		t.Fatalf("a plan of %d sessions orders nothing", len(plan))
	}
	granted := func(st *memStore) []runner.SessionKey {
		srv := httptest.NewServer(NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 2}))
		defer srv.Close()
		return grantedKeys(t, srv.URL)
	}
	if got := granted(newMemStore()); !reflect.DeepEqual(got, plan) {
		t.Fatalf("grants over an empty store left plan order:\ngot  %v\nwant %v", got, plan)
	}

	half, st := plan[:0:0], newMemStore()
	for i, k := range plan {
		if i%2 == 0 {
			_, _ = st.Store(k, &runner.Session{FirstBug: -1, Schedules: k.Limit, Bugs: map[string]int{}})
		} else {
			half = append(half, k)
		}
	}
	if got := granted(st); !reflect.DeepEqual(got, half) {
		t.Fatalf("grants of a coordinator restarted over a half-filled store left plan order:\ngot  %v\nwant %v", got, half)
	}
}

// The capstone: a two-worker campaign with per-worker atlases completes
// the grid, assembles a merged fleet atlas with uniformity verdicts, and
// still writes aggregates byte-identical to a local run — watching a
// fleet changes no record.
func TestFleetAtlasCampaign(t *testing.T) {
	// covScale: coverage on, so the coordinator ingests class tallies and
	// can attach drift verdicts.
	sc := covScale()

	localStore, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer localStore.Close()
	scLocal := sc
	scLocal.Store = localStore
	experiments.SCTBench(scLocal, nil)
	var localAgg bytes.Buffer
	if err := campaign.WriteAggregates(&localAgg, localStore); err != nil {
		t.Fatal(err)
	}

	distStore, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer distStore.Close()
	c := NewCoordinator(distStore, experiments.SCTPlan(sc), CoordinatorOptions{BatchSize: 2})
	srv := httptest.NewServer(c)
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newTestWorker(fmt.Sprintf("w%d", i), srv.URL)
			w.Atlas = atlas.New()
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done")
	}

	var distAgg bytes.Buffer
	if err := campaign.WriteAggregates(&distAgg, distStore); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localAgg.Bytes(), distAgg.Bytes()) {
		t.Fatalf("atlas-carrying fleet's aggregates diverged from local run:\nlocal %d bytes, distributed %d bytes",
			localAgg.Len(), distAgg.Len())
	}

	snap := c.AtlasSnapshot()
	if snap == nil || len(snap.Cells) == 0 {
		t.Fatal("no fleet atlas assembled")
	}
	// covScale: 3 targets × 2 algorithms. Each cell must carry merged
	// cartography and a drift verdict from the coordinator's own tallies.
	if len(snap.Cells) != 6 {
		t.Fatalf("fleet atlas has %d cells, want 6", len(snap.Cells))
	}
	// A worker's atlas rides its heartbeats and — all of it here, no lease
	// lasting a heartbeat period — the leave-taking Run ends with, and must
	// by then contain every session the worker ran: the runner publishes a
	// session's staged counts before its RunSession returns. These sessions
	// (Limit 200) are shorter than the runner's publish interval, so a
	// count that trailed its session would be missing here.
	ran := make(map[[2]string]uint64)
	for _, k := range experiments.SCTPlan(sc) {
		sess, ok := distStore.Lookup(k)
		if !ok {
			t.Fatalf("session %+v not in the store", k)
		}
		ran[[2]string{k.Target, k.Algorithm}] += uint64(sess.Schedules)
	}
	for _, cell := range snap.Cells {
		if want := ran[[2]string{cell.Target, cell.Algorithm}]; cell.Schedules != want {
			t.Fatalf("%s/%s: fleet atlas holds %d schedules, the cell's stored sessions ran %d", cell.Target, cell.Algorithm, cell.Schedules, want)
		}
		if cell.Schedules == 0 || cell.Decisions == 0 {
			t.Fatalf("%s/%s: empty merged cartography: %+v", cell.Target, cell.Algorithm, cell)
		}
		if cell.Uniformity == nil || cell.Uniformity.Samples == 0 {
			t.Fatalf("%s/%s: no drift verdict attached", cell.Target, cell.Algorithm)
		}
	}
}

// Shutdown notification: a coordinator must be able to report when every
// worker has been answered Done and has taken its leave (the lease-less
// heartbeat Worker.Run ends with), so the serving process can linger just
// long enough that no idle poller is stranded against a torn-down
// listener (it cannot distinguish a finished campaign from a restart, so
// it would retry forever) and no worker's final snapshots are lost to it.
func TestAllWorkersNotified(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(1), CoordinatorOptions{BatchSize: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()

	la := leaseFor(t, srv.URL, "a")
	if la.Lease == nil {
		t.Fatal("no lease granted")
	}
	// Worker b polls mid-campaign: everything is leased out, so it gets a
	// retry hint — and is now a known worker that must be notified.
	if lb := leaseFor(t, srv.URL, "b"); lb.Done || lb.Lease != nil {
		t.Fatalf("mid-campaign poll answered %+v, want retry hint", lb)
	}
	if c.AllWorkersNotified() {
		t.Fatal("notified before the campaign completed")
	}

	if code := postJSON(t, srv.URL+PathResult,
		ResultRequest{Worker: "a", LeaseID: la.Lease.ID, Records: sessionRecordsFor(la.Lease)}, nil); code != 200 {
		t.Fatalf("submit: status %d", code)
	}
	if !c.Done() {
		t.Fatal("campaign not done after final submit")
	}
	if c.AllWorkersNotified() {
		t.Fatal("notified while b has not polled since completion")
	}
	leave := func(worker string) {
		t.Helper()
		if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{Worker: worker}, nil); code != 204 {
			t.Fatalf("%s's closing heartbeat: status %d", worker, code)
		}
	}
	if la := leaseFor(t, srv.URL, "a"); !la.Done {
		t.Fatalf("post-completion poll for a: %+v, want done", la)
	}
	if c.AllWorkersNotified() {
		t.Fatal("notified while a, told done, has yet to deliver its closing heartbeat")
	}
	leave("a")
	if c.AllWorkersNotified() {
		t.Fatal("notified while b still unaware")
	}
	// A worker that left and polls again (a restart under the same name) is
	// back, and must be seen off again.
	leave("b")
	if lb := leaseFor(t, srv.URL, "b"); !lb.Done {
		t.Fatalf("post-completion poll for b: %+v, want done", lb)
	}
	if c.AllWorkersNotified() {
		t.Fatal("notified although b polled after its leave-taking")
	}
	leave("b")
	if !c.AllWorkersNotified() {
		t.Fatal("both workers told done and gone, still not notified")
	}
}
