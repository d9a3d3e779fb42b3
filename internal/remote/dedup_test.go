package remote

// Tests for the schedule-equivalence dedup layer: the counting Bloom
// filter the benchmark harness prices, and the capstone — dedup-aware
// aggregates of a distributed coverage campaign staying byte-identical to
// a local run's. The class census is the store's: the coordinator counts
// no class.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"surw/internal/campaign"
	"surw/internal/experiments"
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
	if f.counters != nil || f.Count(42) != 0 {
		t.Fatalf("empty filter: counters allocated %v, Count %d", f.counters != nil, f.Count(42))
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
}

func TestClassFilterManyDistinct(t *testing.T) {
	f := NewClassFilter(1<<16, 0)
	class := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15 + 1 }
	for i := uint64(0); i < 1000; i++ {
		if !f.Add(class(i)) {
			t.Fatalf("class %d not novel on first Add", i)
		}
	}
	// The filter never under-counts: every added class reads at least 1.
	for i := uint64(0); i < 1000; i++ {
		if n := f.Count(class(i)); n < 1 {
			t.Fatalf("class %d: Count %d after one Add", i, n)
		}
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
	// The campaign-wide census is the store's: its pooled distinct classes
	// and duplicate rate over every dedup block are real.
	classes, samples := 0, 0
	for _, cell := range agg.Cells {
		if cell.Coverage != nil && cell.Coverage.Dedup != nil {
			classes += cell.Coverage.Dedup.DistinctClasses
			samples += cell.Coverage.Dedup.Samples
		}
	}
	if classes == 0 || samples <= classes {
		t.Fatalf("store census: %d distinct classes over %d samples, want a real duplicate rate", classes, samples)
	}
}
