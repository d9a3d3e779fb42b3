package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBucketBounds(t *testing.T) {
	// Bucket i holds durations whose nanosecond count has bit-length i,
	// i.e. ns in [2^(i-1), 2^i). The upper bound in seconds is (2^i - 1)/1e9.
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{time.Second, 30},
	}
	for _, c := range cases {
		if got := histBucketOf(int64(c.d)); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	if !math.IsInf(HistBucketBound(HistogramBuckets-1), 1) {
		t.Errorf("last bucket bound = %v, want +Inf", HistBucketBound(HistogramBuckets-1))
	}
	// Bounds strictly increase.
	for i := 1; i < HistogramBuckets-1; i++ {
		if HistBucketBound(i) <= HistBucketBound(i-1) {
			t.Errorf("bounds not increasing at %d: %v <= %v", i, HistBucketBound(i), HistBucketBound(i-1))
		}
	}
}

func TestHistogramObserveWireMerge(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	w := h.Wire()
	if w.Count != 3 {
		t.Fatalf("count = %d, want 3", w.Count)
	}
	wantSum := int64(time.Millisecond + 2*time.Millisecond + time.Second)
	if w.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", w.SumNanos, wantSum)
	}
	// Wire trims trailing zero buckets: last entry must be non-zero.
	if n := len(w.Buckets); n == 0 || w.Buckets[n-1] == 0 {
		t.Fatalf("wire buckets not trimmed: %v", w.Buckets)
	}

	var m Histogram
	m.Merge(w)
	m.Merge(w)
	if got := m.Count(); got != 6 {
		t.Fatalf("merged count = %d, want 6", got)
	}
	if m.Wire().SumNanos != 2*wantSum {
		t.Fatalf("merged sum = %d, want %d", m.Wire().SumNanos, 2*wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1ms, 1 at ~1s: p50 stays in the 1ms bucket,
	// p99 too (ceil(0.99*101) = 100 <= 100), but the max lands at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot("op")
	if s.Op != "op" || s.Count != 101 {
		t.Fatalf("snapshot header: %+v", s)
	}
	if s.P50 > 0.01 {
		t.Errorf("p50 = %v, want ~1ms bucket bound (<= 10ms)", s.P50)
	}
	if s.P99 > 0.01 {
		t.Errorf("p99 = %v, want ~1ms bucket bound", s.P99)
	}
	// Buckets are cumulative and end at count.
	if n := len(s.Buckets); n == 0 || s.Buckets[n-1].CumCount != 101 {
		t.Fatalf("cumulative buckets wrong: %+v", s.Buckets)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].CumCount < s.Buckets[i-1].CumCount {
			t.Fatalf("cumulative counts decrease at %d", i)
		}
	}
}

func TestLatencySetWireMergeSnapshots(t *testing.T) {
	var a LatencySet
	a.Observe("lease_rpc", 3*time.Millisecond)
	a.Observe("session", 40*time.Millisecond)
	a.Observe("session", 60*time.Millisecond)

	var b LatencySet
	b.Merge(a.Wire())
	b.Observe("session", 80*time.Millisecond)

	snaps := b.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	// Sorted by op.
	if snaps[0].Op != "lease_rpc" || snaps[1].Op != "session" {
		t.Fatalf("snapshot order: %s, %s", snaps[0].Op, snaps[1].Op)
	}
	if snaps[1].Count != 3 {
		t.Fatalf("session count = %d, want 3", snaps[1].Count)
	}
}

func TestWriteLatencyPrometheusLints(t *testing.T) {
	var s LatencySet
	s.Observe("lease_rpc", 500*time.Microsecond)
	s.Observe("submit", 2*time.Millisecond)
	s.Observe("submit", 7*time.Millisecond)
	var buf bytes.Buffer
	var p Prom
	p.Histogram("surw_latency_seconds", "Operation latency.", s.Snapshots())
	if err := p.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if !strings.Contains(page, `surw_latency_seconds_bucket{op="submit",le="+Inf"}`) {
		t.Errorf("missing +Inf bucket:\n%s", page)
	}
	if err := LintPrometheus(strings.NewReader(page)); err != nil {
		t.Errorf("latency page fails lint: %v\n%s", err, page)
	}
}

func TestMetricsLatencyInPrometheusPage(t *testing.T) {
	m := NewMetrics()
	m.Latency("session").Observe(5 * time.Millisecond)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `surw_latency_seconds_count{op="session"} 1`) {
		t.Errorf("metrics page missing latency series:\n%s", buf.String())
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("metrics page fails lint: %v", err)
	}
}

// An observation in the overflow bucket leaves the snapshot finite — it has
// to encode as JSON — while the Prometheus page keeps its +Inf bucket.
func TestSnapshotWithOverflowObservationIsFinite(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(1 << 48)
	s := h.Snapshot("op")
	last := HistBucketBound(HistogramBuckets - 2)
	if s.P50 >= last || s.P95 != last || s.P99 != last {
		t.Errorf("percentiles %v/%v/%v, want p50 finite and small, p95 = p99 = the last finite bound %v", s.P50, s.P95, s.P99, last)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].CumCount != 1 || s.Count != 2 {
		t.Errorf("buckets %+v count %d, want the one finite bucket and a count of 2", s.Buckets, s.Count)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot does not encode: %v", err)
	}
	var p Prom
	p.Histogram("surw_test_seconds", "test", []LatencySnap{s})
	var page strings.Builder
	if err := p.Flush(&page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), `le="+Inf"} 2`) {
		t.Errorf("page lost its +Inf bucket:\n%s", page.String())
	}
}
