package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/sched"
)

// pingpong has two workers with enough events for a meaningful trace.
func pingpong(k int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		x := t.NewVar("x", 0)
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Add(w, 1)
			}
		})
		b := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Add(w, 2)
			}
		})
		t.Join(a)
		t.Join(b)
	}
}

func TestCollectorKeepsEveryDecisionUnbounded(t *testing.T) {
	col := obs.NewCollector(0)
	r := sched.Run(pingpong(6), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}, Tracer: col})
	if col.Len() != r.Steps {
		t.Fatalf("collector holds %d records for %d steps", col.Len(), r.Steps)
	}
	if col.Threads() != r.Threads {
		t.Fatalf("collector threads=%d, result %d", col.Threads(), r.Threads)
	}
	for i := 0; i < col.Len(); i++ {
		if got := col.Record(i).Step; got != i {
			t.Fatalf("record %d holds step %d; order broken", i, got)
		}
	}
	if col.ThreadPath(0) != "0" {
		t.Fatalf("root path %q", col.ThreadPath(0))
	}
}

func TestCollectorRingKeepsLastN(t *testing.T) {
	const ring = 5
	col := obs.NewCollector(ring)
	r := sched.Run(pingpong(8), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}, Tracer: col})
	if r.Steps <= ring {
		t.Fatalf("program too short (%d steps) to wrap ring %d", r.Steps, ring)
	}
	if col.Len() != ring {
		t.Fatalf("ring holds %d, want %d", col.Len(), ring)
	}
	// Oldest-first: records must be the final `ring` steps in order.
	for i := 0; i < ring; i++ {
		want := r.Steps - ring + i
		if got := col.Record(i).Step; got != want {
			t.Fatalf("ring[%d] holds step %d, want %d", i, got, want)
		}
	}
}

// TestCollectorRecyclesAcrossSchedules holds the pooled-tracer promise:
// steady-state collection on a pool must not allocate per schedule.
func TestCollectorRecyclesAcrossSchedules(t *testing.T) {
	col := obs.NewCollector(0)
	pool := sched.NewPool()
	prog := pingpong(6)
	alg := core.NewURW() // URW annotates, exercising the annot buffers too
	// Warm everything: pool buffers, ring slots, annotation buffers.
	for i := 0; i < 5; i++ {
		pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}, Tracer: col})
	}
	allocs := testing.AllocsPerRun(50, func() {
		pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: 3}, Tracer: col})
	})
	// The pooled scheduler itself allocates a handful per schedule; the
	// collector must add zero on top (warm slots are reused in place).
	base := testing.AllocsPerRun(50, func() {
		pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: 3}})
	})
	if allocs > base {
		t.Fatalf("collector adds allocations: %.1f with tracer vs %.1f without", allocs, base)
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	col := obs.NewCollector(0)
	r := sched.Run(pingpong(4), core.NewSURW(), sched.Options{Base: sched.Base{Seed: 2}, Tracer: col})
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if err := obs.ValidateChromeTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("own export fails validation: %v", err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	var threadNames, slices int
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames++
		case ev.Ph == "X":
			slices++
		}
	}
	if threadNames != r.Threads {
		t.Fatalf("%d thread_name tracks for %d threads", threadNames, r.Threads)
	}
	if slices != r.Steps {
		t.Fatalf("%d slices for %d steps", slices, r.Steps)
	}

	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"M"}]}`,
	} {
		if err := obs.ValidateChromeTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("validator accepted %s", bad)
		}
	}
}

// TestCollectorAnnotations checks SURW's Δ-weight annotations survive into
// the exported records.
func TestCollectorAnnotations(t *testing.T) {
	col := obs.NewCollector(0)
	prog := pingpong(4)
	sched.Run(prog, core.NewSURW(), sched.Options{Base: sched.Base{Seed: 2}, Tracer: col})
	found := false
	for i := 0; i < col.Len(); i++ {
		if a := col.Record(i).Annot(); strings.Contains(a, "intended=") && strings.Contains(a, "Δw=") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no SURW annotation captured")
	}
}
