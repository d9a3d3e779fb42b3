package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"surw/internal/campaign"
	"surw/internal/experiments"
)

// grantBench is a coordinator with a fixed number of one-session batches
// pending, refilled between chunks of grants so that every timed grant
// pops from a queue of (nearly) that length.
type grantBench struct {
	c      *Coordinator
	queued []batch
}

// grantChunk is how many leases are granted between refills: the queue a
// grant sees is at most this much shorter than the nominal length.
const grantChunk = 50

func newGrantBench(pending int) *grantBench {
	c := NewCoordinator(newMemStore(), syntheticPlan(pending), CoordinatorOptions{BatchSize: 1})
	return &grantBench{c: c, queued: slices.Clone(c.pending)}
}

// grant answers n lease polls through the handler itself (no sockets: the
// handler under c.mu is what is being priced) and returns the time taken;
// the refill before it is not timed.
func (g *grantBench) grant(b *testing.B, n int) time.Duration {
	g.c.pending = slices.Clone(g.queued)
	clear(g.c.leases)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if ws := g.c.workers["w"]; ws != nil {
			ws.lease = nil // as a submission would, or the grant requeues it
		}
		rec := httptest.NewRecorder()
		g.c.handle(rec, httptest.NewRequest(http.MethodPost, PathLease, strings.NewReader(`{"worker":"w"}`)), true)
		if rec.Code != http.StatusOK {
			b.Fatalf("lease: status %d", rec.Code)
		}
	}
	return time.Since(t0)
}

// BenchmarkLeaseGrant prices one FIFO lease grant against the length of
// the pending queue. Granting pops the queue's head under the
// coordinator's mutex, so its cost must not grow with the plan: the
// pending_20000 arm reports x_pending_100, its time per grant as a
// multiple of a 100-batch queue's, the two measured in alternating chunks
// in one process — the ratio ci.sh gates. Popping by shifting the queue
// down (a 960 KB memmove per grant at 20 000 batches) reads ≈ 10.
func BenchmarkLeaseGrant(b *testing.B) {
	for _, pending := range []int{100, 20000} {
		b.Run(fmt.Sprintf("pending_%d", pending), func(b *testing.B) {
			g, ref := newGrantBench(pending), newGrantBench(100)
			var timed, refTimed time.Duration
			for i := 0; i < b.N; i += grantChunk {
				n := min(grantChunk, b.N-i)
				timed += g.grant(b, n)
				refTimed += ref.grant(b, n)
			}
			b.ReportMetric(float64(timed)/float64(b.N), "ns/grant")
			b.ReportMetric(float64(timed)/float64(refTimed), "x_pending_100")
		})
	}
}

// fleetBenchScale is a small plan of short hunts (stop at first bug), the
// shape on which per-session and per-lease set-up is most of the work.
func fleetBenchScale() experiments.Scale {
	return experiments.Scale{
		Seed: 11, Sessions: 20, Limit: 300, SafeStackLimit: 300, Workers: 2,
		SCTTargets: []string{"CS/account", "CS/lazy01", "CS/bluetooth_driver", "CS/twostage_20"},
		SCTAlgs:    []string{"SURW", "URW", "RW"},
	}
}

// BenchmarkNewCoordinator prices the coordinator's plan tables: what
// NewCoordinator allocates over an empty store, in bytes a planned session,
// on the plan of the benchmark's fleet_loopback workload (eight targets,
// five algorithms, 60 sessions a cell) at one session a lease. A coordinator
// is built once a campaign, so this is paid once a session; ci.sh gates it.
func BenchmarkNewCoordinator(b *testing.B) {
	plan := experiments.SCTPlan(experiments.Scale{
		Seed: 1, Sessions: 60, Limit: 300, SafeStackLimit: 300,
		SCTTargets: []string{"CS/reorder_10", "CS/twostage_20", "CB/stringbuffer-jdk1.4", "Chess/WSQ", "CS/bluetooth_driver", "CS/account", "CS/lazy01", "CS/deadlock01"},
		SCTAlgs:    []string{"SURW", "URW", "RW", "PCT-3", "POS"},
	})
	store := newMemStore()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		NewCoordinator(store, plan, CoordinatorOptions{BatchSize: 1})
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*len(plan)), "B/session")
}

// allocated is what a run allocated on every goroutine: heap objects and
// their bytes (runtime.MemStats' Mallocs and TotalAlloc).
type allocated struct{ objects, bytes uint64 }

func (a *allocated) add(o allocated) { a.objects += o.objects; a.bytes += o.bytes }

// mallocsOf measures what run allocates.
func mallocsOf(b *testing.B, run func(store *campaign.Store)) allocated {
	b.Helper()
	store, err := campaign.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(store)
	runtime.ReadMemStats(&m1)
	return allocated{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// BenchmarkFleetSession prices distribution in allocations: one plan of
// short hunts run locally into a campaign store (experiments.SCTBench, the
// "local" arm) and drained into the same kind of store by two loopback
// workers at one session a lease (the "fleet" arm: a new coordinator,
// server and workers per drain, as a campaign has). Each arm reports
// allocs/session; the fleet arm also reports over_local and over_local_B,
// the objects and the bytes a session costs it beyond the local run's made
// in alternation in the same process — the differences ci.sh gates, so the
// next allocation added per lease shows where it is added and one shed by
// the engine, which both arms shed, moves nothing. What a lease cannot shed
// is its one HTTP round trip — the submission, whose reply is the next lease
// — and net/http's ≈ 84 objects for it; see DESIGN §9.
func BenchmarkFleetSession(b *testing.B) {
	sc := fleetBenchScale()
	plan := experiments.SCTPlan(sc)
	local := func(store *campaign.Store) {
		run := sc
		run.Store = store
		experiments.SCTBench(run, nil)
	}
	fleet := func(store *campaign.Store) {
		c := NewCoordinator(store, plan, CoordinatorOptions{BatchSize: 1, RetryAfter: 10 * time.Millisecond})
		srv := httptest.NewServer(c)
		defer srv.Close()
		var wg sync.WaitGroup
		for _, name := range []string{"w0", "w1"} {
			w := newTestWorker(name, srv.URL)
			w.Workers = 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Run(context.Background()); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		if !c.Done() {
			b.Error("plan not drained")
		}
	}
	b.Run("local", func(b *testing.B) {
		var total allocated
		for i := 0; i < b.N; i++ {
			total.add(mallocsOf(b, local))
		}
		b.ReportMetric(float64(total.objects)/float64(b.N*len(plan)), "allocs/session")
	})
	b.Run("fleet", func(b *testing.B) {
		var total, ref allocated
		for i := 0; i < b.N; i++ {
			total.add(mallocsOf(b, fleet))
			b.StopTimer()
			ref.add(mallocsOf(b, local))
			b.StartTimer()
		}
		sessions := float64(b.N * len(plan))
		b.ReportMetric(float64(total.objects)/sessions, "allocs/session")
		b.ReportMetric((float64(total.objects)-float64(ref.objects))/sessions, "over_local")
		b.ReportMetric((float64(total.bytes)-float64(ref.bytes))/sessions, "over_local_B")
	})
}
