package obs

// Latency histograms: a lock-free, log-bucketed duration histogram that is
// cheap enough to sit on RPC and session paths, mergeable across processes
// (workers ship their buckets to the coordinator, which folds them into one
// fleet-wide view), and renderable both as Prometheus cumulative `_bucket`
// series (Prom.Histogram) and as p50/p95/p99 percentile columns on the
// dashboard.
//
// Bucketing is powers of two in nanoseconds: an observation of v ns lands
// in bucket bits.Len64(v), whose upper bound is 2^i-1 ns. 48 buckets cover
// everything from sub-microsecond checkpoint forks to multi-hour stalls
// with at most a factor-2 quantile error — plenty for "which phase ate the
// wall-clock" questions, and small enough that every histogram is a flat
// array of atomics with no locking on the observe path.

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HistogramBuckets is the number of log2 buckets; bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). The
// last bucket absorbs everything larger (~1.6 days and up).
const HistogramBuckets = 48

// Histogram is a lock-free log2-bucketed duration histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [HistogramBuckets]atomic.Uint64
}

// histBucketOf maps a nanosecond value to its bucket index.
func histBucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// HistBucketBound returns bucket i's inclusive upper bound in seconds
// (+Inf for the last bucket).
func HistBucketBound(i int) float64 {
	if i >= HistogramBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)-1) / 1e9
}

// Observe folds one duration into the histogram. Negative durations
// (clock skew on a non-monotonic reading) clamp to zero, keeping the sum
// a valid Prometheus histogram sum.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[histBucketOf(int64(d))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Wire returns the histogram's mergeable wire form. Trailing empty buckets
// are trimmed so quiet histograms stay small on the wire.
func (h *Histogram) Wire() HistogramWire {
	w := HistogramWire{Count: h.count.Load(), SumNanos: h.sum.Load()}
	last := -1
	var b [HistogramBuckets]uint64
	for i := range b {
		if b[i] = h.buckets[i].Load(); b[i] > 0 {
			last = i
		}
	}
	if last >= 0 {
		w.Buckets = append(w.Buckets, b[:last+1]...)
	}
	return w
}

// Merge folds a wire-form histogram (another process's observations) into
// this one. Counts only ever add, so merging the same worker's cumulative
// snapshot twice over-counts; callers keep one latest snapshot per source.
func (h *Histogram) Merge(w HistogramWire) {
	h.count.Add(w.Count)
	h.sum.Add(w.SumNanos)
	for i, n := range w.Buckets {
		if i >= HistogramBuckets {
			break
		}
		h.buckets[i].Add(n)
	}
}

// HistogramWire is the JSON form of a histogram: per-bucket counts (index =
// log2 bucket, trailing zeros trimmed) plus the totals.
type HistogramWire struct {
	Count    uint64   `json:"count"`
	SumNanos int64    `json:"sum_ns"`
	Buckets  []uint64 `json:"buckets,omitempty"`
}

// Snapshot renders the histogram into its derived form: percentiles and
// cumulative buckets ready for the dashboard and the Prometheus page.
func (h *Histogram) Snapshot(op string) LatencySnap { return h.Wire().Snapshot(op) }

// Snapshot derives percentiles and cumulative buckets from a wire
// histogram. Every number in it is finite, so that it encodes as JSON: the
// overflow bucket (whose bound is +Inf) is left to Count, which is what the
// Prometheus page's mandatory +Inf bucket reads, and a percentile that
// falls in it reports the last finite bound: "at least 2^46 ns", 19.5 hours.
func (w HistogramWire) Snapshot(op string) LatencySnap {
	const overflow = HistogramBuckets - 1
	s := LatencySnap{Op: op, Count: w.Count, SumSeconds: float64(w.SumNanos) / 1e9}
	var cum uint64
	for i, n := range w.Buckets {
		if i >= overflow {
			break
		}
		cum += n
		if n > 0 || i == len(w.Buckets)-1 {
			s.Buckets = append(s.Buckets, LatencyBucket{LE: HistBucketBound(i), CumCount: cum})
		}
	}
	q := func(p float64) float64 {
		if w.Count == 0 {
			return 0
		}
		want := uint64(math.Ceil(p * float64(w.Count)))
		if want < 1 {
			want = 1
		}
		var c uint64
		for i, n := range w.Buckets {
			if c += n; c >= want && i < overflow {
				return HistBucketBound(i)
			}
		}
		return HistBucketBound(overflow - 1)
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// LatencyBucket is one cumulative bucket of a LatencySnap: CumCount
// observations were <= LE seconds.
type LatencyBucket struct {
	LE       float64 `json:"le"`
	CumCount uint64  `json:"cum_count"`
}

// LatencySnap is the derived view of one operation's latency histogram —
// what the dashboard renders as p50/p95/p99 columns and /metrics renders
// as a Prometheus histogram.
type LatencySnap struct {
	Op         string          `json:"op"`
	Count      uint64          `json:"count"`
	SumSeconds float64         `json:"sum_seconds"`
	P50        float64         `json:"p50"`
	P95        float64         `json:"p95"`
	P99        float64         `json:"p99"`
	Buckets    []LatencyBucket `json:"buckets,omitempty"`
}

// LatencySet is a registry of named latency histograms. The zero value is
// ready; Hist interns each operation's histogram on first use, so steady
// state is one map read under a mutex plus lock-free observes — callers on
// hot paths grab the *Histogram once and hold it.
type LatencySet struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// Hist returns (creating if needed) the histogram for op.
func (s *LatencySet) Hist(op string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h := s.hists[op]
	if h == nil {
		h = &Histogram{}
		s.hists[op] = h
	}
	return h
}

// Observe folds one duration into op's histogram.
func (s *LatencySet) Observe(op string, d time.Duration) { s.Hist(op).Observe(d) }

// Wire snapshots every histogram into its mergeable wire form.
func (s *LatencySet) Wire() map[string]HistogramWire {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramWire, len(s.hists))
	for op, h := range s.hists {
		out[op] = h.Wire()
	}
	return out
}

// Merge folds a wire snapshot (e.g. one worker's histograms) into the set.
func (s *LatencySet) Merge(wire map[string]HistogramWire) {
	for op, w := range wire {
		s.Hist(op).Merge(w)
	}
}

// Snapshots derives every operation's LatencySnap, sorted by operation
// name, skipping empty histograms.
func (s *LatencySet) Snapshots() []LatencySnap {
	s.mu.Lock()
	ops := make([]string, 0, len(s.hists))
	for op := range s.hists {
		ops = append(ops, op)
	}
	hists := make(map[string]*Histogram, len(s.hists))
	for op, h := range s.hists {
		hists[op] = h
	}
	s.mu.Unlock()
	sort.Strings(ops)
	var out []LatencySnap
	for _, op := range ops {
		if snap := hists[op].Snapshot(op); snap.Count > 0 {
			out = append(out, snap)
		}
	}
	return out
}
