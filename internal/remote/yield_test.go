package remote

// Tests for yield-guided leasing and the fleet atlas: grant-order
// determinism with the flag off (FIFO, as ever) and on (a pure function
// of plan, store, seed, and request order), weight-driven avoidance of
// saturated cells, and the capstone — a two-worker campaign with
// -yield-leases and worker atlases completes, counts yield grants,
// assembles a merged fleet atlas with drift verdicts, and still writes
// byte-identical aggregates (sessions are deterministic, so grant order
// never reaches the records).

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/runner"
)

// yieldPlan builds three cells of four sessions each, in plan order
// t/a, t/b, t/c.
func yieldPlan() []runner.SessionKey {
	var plan []runner.SessionKey
	for _, tgt := range []string{"t/a", "t/b", "t/c"} {
		for s := 0; s < 4; s++ {
			plan = append(plan, runner.SessionKey{Target: tgt, Algorithm: "RW", Limit: 100, Seed: 1, Session: s})
		}
	}
	return plan
}

// saturateCell stores records for the cell's first two sessions whose
// coverage saw a single class 50 times each: Good-Turing unseen mass 0,
// so the cell's lease weight drops to the floor.
func saturateCell(st *memStore, plan []runner.SessionKey, target string) {
	for _, k := range plan {
		if k.Target != target || k.Session > 1 {
			continue
		}
		_, _ = st.Store(k, &runner.Session{
			FirstBug:  -1,
			Schedules: 50,
			Bugs:      map[string]int{},
			Cov: &runner.Coverage{
				Interleavings: map[uint64]int{0x1: 50},
				Classes:       map[uint64]int{0xdead: 50},
				Behaviors:     map[string]int{"b": 50},
			},
		})
	}
}

// grantSeq polls leases for one worker until the queue is drained (the
// granted leases are held, never submitted), returning one
// "target#sessions" entry per grant.
func grantSeq(t *testing.T, url, worker string) []string {
	t.Helper()
	var seq []string
	for {
		resp := leaseFor(t, url, worker)
		if resp.Lease == nil {
			return seq
		}
		seq = append(seq, fmt.Sprintf("%s%v", resp.Lease.Target, resp.Lease.Sessions))
	}
}

// With the flag off, grants follow plan order exactly — the FIFO contract
// every byte-identity smoke leans on is untouched by the yield machinery.
func TestGrantOrderFIFOWithYieldOff(t *testing.T) {
	st := newMemStore()
	plan := yieldPlan()
	saturateCell(st, plan, "t/a")
	c := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 2})
	srv := httptest.NewServer(c)
	defer srv.Close()

	got := grantSeq(t, srv.URL, "w")
	want := []string{"t/a[2 3]", "t/b[0 1]", "t/b[2 3]", "t/c[0 1]", "t/c[2 3]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("FIFO grant order changed:\ngot  %v\nwant %v", got, want)
	}
	if rs := c.Status(); rs.YieldGrants != 0 {
		t.Fatalf("yield grants counted with the flag off: %d", rs.YieldGrants)
	}
}

// With the flag on, two coordinators built from the same plan, store, and
// seed grant the same single worker an identical lease sequence — and the
// weighted draw steers it away from the saturated cell's floor weight.
func TestYieldLeaseGrantDeterminism(t *testing.T) {
	build := func() (*Coordinator, *httptest.Server) {
		st := newMemStore()
		plan := yieldPlan()
		saturateCell(st, plan, "t/a")
		c := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 2, YieldLeases: true, YieldSeed: 7})
		return c, httptest.NewServer(c)
	}
	c1, srv1 := build()
	defer srv1.Close()
	c2, srv2 := build()
	defer srv2.Close()

	seq1 := grantSeq(t, srv1.URL, "w")
	seq2 := grantSeq(t, srv2.URL, "w")
	if fmt.Sprint(seq1) != fmt.Sprint(seq2) {
		t.Fatalf("identical coordinators granted different sequences:\n%v\n%v", seq1, seq2)
	}
	if len(seq1) != 5 {
		t.Fatalf("granted %d leases, want 5: %v", len(seq1), seq1)
	}
	// The saturated cell carries weight 0.05 against 1.0 each for the four
	// fresh batches; the first draw all but certainly lands elsewhere (and
	// deterministically so for this seed).
	if seq1[0] == "t/a[2 3]" {
		t.Fatalf("first yield-weighted grant hit the saturated cell: %v", seq1)
	}
	if rs := c1.Status(); rs.YieldGrants != 5 {
		t.Fatalf("YieldGrants = %d, want 5", rs.YieldGrants)
	}
	_ = c2
}

// A different seed draws a different sequence — the determinism above is
// the seed's doing, not an accident of a degenerate draw.
func TestYieldSeedChangesDraw(t *testing.T) {
	build := func(seed int64) []string {
		st := newMemStore()
		plan := yieldPlan()
		c := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 2, YieldLeases: true, YieldSeed: seed})
		srv := httptest.NewServer(c)
		defer srv.Close()
		return grantSeq(t, srv.URL, "w")
	}
	for seed := int64(2); seed < 20; seed++ {
		if a, b := build(1), build(seed); fmt.Sprint(a) != fmt.Sprint(b) {
			return
		}
	}
	t.Fatal("every seed produced the same grant sequence")
}

// The capstone: a two-worker campaign with yield-guided leasing and
// per-worker atlases completes the grid, counts nonzero yield-weighted
// grants, assembles a merged fleet atlas with uniformity verdicts, and
// still writes aggregates byte-identical to a local run — sessions are
// deterministic, so grant order can reorder execution but never change a
// record.
func TestYieldLeasesCampaignWithFleetAtlas(t *testing.T) {
	// covScale: coverage on, so the coordinator ingests class tallies and
	// can attach drift verdicts (and weight leases by real yields).
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
	c := NewCoordinator(distStore, experiments.SCTPlan(sc), CoordinatorOptions{
		BatchSize: 2, YieldLeases: true, YieldSeed: sc.Seed,
	})
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
	rs := c.Status()
	if rs.YieldGrants == 0 {
		t.Fatal("campaign completed without a single yield-weighted grant")
	}

	var distAgg bytes.Buffer
	if err := campaign.WriteAggregates(&distAgg, distStore); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localAgg.Bytes(), distAgg.Bytes()) {
		t.Fatalf("yield-leased aggregates diverged from local run:\nlocal %d bytes, distributed %d bytes",
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
