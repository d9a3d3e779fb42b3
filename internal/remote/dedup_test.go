package remote

// Tests for the schedule-equivalence dedup layer: the counting-bloom
// seen-class filter, the coordinator's fleet-wide duplicate gauges
// (including their rebuild from a resumed store), and the capstone —
// dedup-aware aggregates of a distributed coverage campaign staying
// byte-identical to a local run's. The gauges are all of it: nothing asks
// the coordinator about a class, and /v1/classes is no endpoint.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/runner"
)

// Count returns the class's estimated observation count (capped at 255);
// zero for every class of a filter nothing was added to.
func (f *ClassFilter) Count(class uint64) int {
	var s [filterHashes]uint64
	f.slots(class, &s)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.counters == nil {
		return 0
	}
	min := uint8(255)
	for _, i := range s {
		if f.counters[i] < min {
			min = f.counters[i]
		}
	}
	return int(min)
}

func TestClassFilterAddSaturate(t *testing.T) {
	f := NewClassFilter(1<<10, 0)
	// Nothing added: no counters yet, and the queries answer for an empty
	// filter without them.
	if obs, distinct := f.Stats(); f.counters != nil || f.Count(42) != 0 || obs != 0 || distinct != 0 {
		t.Fatalf("empty filter: counters allocated %v, Count %d, Stats (%d, %d)", f.counters != nil, f.Count(42), obs, distinct)
	}
	if !f.Add(42) {
		t.Fatal("first Add not novel")
	}
	if f.Add(42) {
		t.Fatal("second Add still novel")
	}
	if f.Count(42) != 2 {
		t.Fatalf("Count = %d after two adds, want 2", f.Count(42))
	}
	f.Add(42)
	if f.Count(42) != 3 {
		t.Fatalf("Count = %d, want 3", f.Count(42))
	}
	// A distinct class is unaffected (no collision in a near-empty filter).
	if f.Count(43) != 0 {
		t.Fatalf("unrelated class counted %d", f.Count(43))
	}
	obs, distinct := f.Stats()
	if obs != 3 || distinct != 1 {
		t.Fatalf("Stats = (%d, %d), want (3, 1)", obs, distinct)
	}
}

func TestClassFilterManyDistinct(t *testing.T) {
	f := NewClassFilter(1<<16, 0)
	for i := uint64(0); i < 1000; i++ {
		if !f.Add(i*0x9e3779b97f4a7c15 + 1) {
			t.Fatalf("class %d not novel on first Add", i)
		}
	}
	obs, distinct := f.Stats()
	if obs != 1000 || distinct != 1000 {
		t.Fatalf("Stats = (%d, %d), want (1000, 1000)", obs, distinct)
	}
}

// covRecordsFor fabricates records for a synthetic lease where every
// session saw the same three schedules: class 0xabc twice and a
// session-unique class once.
func covRecordsFor(l *Lease) []record {
	recs := make([]record, len(l.Sessions))
	for i, s := range l.Sessions {
		k := runner.SessionKey{CellKey: l.CellKey, Session: s}
		recs[i] = record{Key: k, Session: &runner.Session{
			FirstBug:  -1,
			Schedules: 3,
			Bugs:      map[string]int{},
			Cov: &runner.Coverage{
				Interleavings: map[uint64]int{uint64(1000 + s): 3},
				Classes:       map[uint64]int{0xabc: 2, uint64(1 + s): 1},
				Behaviors:     map[string]int{"b": 3},
				DupSchedules:  1,
			},
		}}
	}
	return recs
}

func TestDuplicateGauges(t *testing.T) {
	st := newMemStore()
	c := NewCoordinator(st, syntheticPlan(3), CoordinatorOptions{BatchSize: 8})
	srv := httptest.NewServer(c)
	defer srv.Close()

	// Before any results the gauges are empty.
	if rs := c.Status(); rs.ClassObservations != 0 || rs.DistinctClasses != 0 || rs.DuplicateRate != 0 {
		t.Fatalf("gauges of a coordinator that ingested nothing: %+v", rs)
	}
	la := leaseFor(t, srv.URL, "a")
	if code := postJSON(t, srv.URL+PathResult,
		ResultRequest{Worker: "a", LeaseID: la.Lease.ID, Records: covRecordsFor(la.Lease)}, nil); code != 200 {
		t.Fatalf("submit: status %d", code)
	}
	// Three sessions: 9 schedules total, 4 distinct classes (0xabc, 1, 2,
	// 3) → duplicate rate 5/9.
	rs := c.Status()
	if rs.ClassObservations != 6 || rs.DistinctClasses != 4 {
		t.Fatalf("filter gauges: %+v, want 6 observations over 4 classes", rs)
	}
	if want := 5.0 / 9.0; rs.DuplicateRate != want {
		t.Fatalf("DuplicateRate = %v, want %v", rs.DuplicateRate, want)
	}

	// The gauges are read, never asked: the class-query endpoint is gone.
	q := map[string]any{"worker": "a", "classes": []string{"0000000000000abc"}}
	if code := postJSON(t, srv.URL+"/v1/classes", q, nil); code != http.StatusNotFound {
		t.Fatalf("POST /v1/classes: status %d, want 404", code)
	}
}

func TestCoordinatorRebuildsFilterFromStore(t *testing.T) {
	st := newMemStore()
	plan := syntheticPlan(3)
	c1 := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 8})
	srv1 := httptest.NewServer(c1)
	la := leaseFor(t, srv1.URL, "a")
	if code := postJSON(t, srv1.URL+PathResult,
		ResultRequest{Worker: "a", LeaseID: la.Lease.ID, Records: covRecordsFor(la.Lease)}, nil); code != 200 {
		t.Fatalf("submit: status %d", code)
	}
	srv1.Close()

	// A restarted coordinator over the same store rebuilds the seen-class
	// filter and duplicate tallies from the stored records.
	c2 := NewCoordinator(st, plan, CoordinatorOptions{BatchSize: 8})
	r1, r2 := c1.Status(), c2.Status()
	if r1.DistinctClasses != 4 || r2.ClassObservations != r1.ClassObservations ||
		r2.DistinctClasses != r1.DistinctClasses || r2.DuplicateRate != r1.DuplicateRate {
		t.Fatalf("restart lost dedup state: before %+v, after %+v", r1, r2)
	}
}

// covScale is sctScale plus coverage: two table cells and the bitshift
// probe, whose tiny C(8,4)=70-class space guarantees duplicates at a
// 200-schedule budget.
func covScale() experiments.Scale {
	sc := sctScale()
	sc.SCTTargets = append(sc.SCTTargets, "Fig1/bitshift_4")
	sc.SCTCoverage = true
	return sc
}

// TestDistributedDedupAggregatesAreByteIdentical extends the capstone to
// the dedup layer: with coverage on, the distributed campaign's
// aggregates — the Dedup block (distinct classes, duplicate rate,
// Good-Turing/Chao1 estimators) included — are byte-identical to a
// single-process run's, and the duplicate rate is real (> 0).
func TestDistributedDedupAggregatesAreByteIdentical(t *testing.T) {
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
			errs[i] = newTestWorker(fmt.Sprintf("w%d", i), srv.URL).Run(context.Background())
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
		t.Fatalf("distributed dedup aggregates diverged from local run:\nlocal %d bytes, distributed %d bytes",
			localAgg.Len(), distAgg.Len())
	}

	// The bitshift cells must show a real duplicate rate and the exact
	// ground-truth class count.
	agg := distStore.Aggregate()
	found := false
	for _, cell := range agg.Cells {
		if cell.Target != "Fig1/bitshift_4" || cell.Coverage == nil || cell.Coverage.Dedup == nil {
			continue
		}
		found = true
		dd := cell.Coverage.Dedup
		if dd.DistinctClasses == 0 || dd.DistinctClasses > 70 {
			t.Fatalf("%s/%s: %d distinct classes, want 1..70", cell.Target, cell.Algorithm, dd.DistinctClasses)
		}
		if dd.DuplicateRate <= 0 {
			t.Fatalf("%s/%s: duplicate rate %v, want > 0 at a 200-schedule budget over 70 classes",
				cell.Target, cell.Algorithm, dd.DuplicateRate)
		}
	}
	if !found {
		t.Fatal("no bitshift dedup aggregate found")
	}
	if rs := c.Status(); rs.DistinctClasses == 0 || rs.DuplicateRate <= 0 {
		t.Fatalf("coordinator gauges stayed empty: %+v", rs)
	}
}
