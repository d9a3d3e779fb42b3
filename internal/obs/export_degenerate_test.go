package obs_test

// Degenerate-input coverage for the exporters: collectors that never ran,
// rings that overflowed, and collectors recycled between schedules must all
// export well-formed artifacts — the Chrome trace, and the flight record's
// decisions (CollectorRecords) — or be rejected by the validator for the
// right reason, never panic or emit garbage.

import (
	"bytes"
	"encoding/json"
	"testing"

	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/sched"
)

// A collector that never saw a schedule still exports: the Chrome trace is
// valid JSON holding only the process metadata (and the validator rejects
// it, because a trace with no slices is useless), and a flight record gets
// no decisions.
func TestExportEmptyCollector(t *testing.T) {
	col := obs.NewCollector(0)

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, col); err != nil {
		t.Fatalf("chrome trace of empty collector: %v", err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tr); err != nil {
		t.Fatalf("empty trace is not JSON: %v", err)
	}
	if len(tr.TraceEvents) != 1 || tr.TraceEvents[0].Ph != "M" {
		t.Fatalf("empty trace events = %+v, want exactly the process metadata", tr.TraceEvents)
	}
	if err := obs.ValidateChromeTrace(&trace); err == nil {
		t.Fatal("validator accepted a trace with no complete events")
	}

	if recs := obs.CollectorRecords(col); col.Len() != 0 || len(recs) != 0 {
		t.Fatalf("empty collector: %d held, %d records", col.Len(), len(recs))
	}
}

// A ring that overflowed exports only the held tail, in decision order.
func TestExportOverflowedRing(t *testing.T) {
	const ring = 4
	col := obs.NewCollector(ring)
	r := sched.Run(pingpong(8), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}, Tracer: col})
	if r.Steps <= ring {
		t.Fatalf("schedule too short (%d steps) to overflow the ring", r.Steps)
	}

	recs := obs.CollectorRecords(col)
	if len(recs) != ring {
		t.Fatalf("exported %d records, want %d", len(recs), ring)
	}
	for i, rec := range recs {
		if want := r.Steps - ring + i; rec.Step != want {
			t.Fatalf("record %d holds step %d, want %d (tail order broken)", i, rec.Step, want)
		}
	}
}

// A collector recycled across schedules exports only the latest schedule:
// no stale records from the longer previous run may leak into the output.
func TestExportRecycledCollector(t *testing.T) {
	col := obs.NewCollector(0)
	long := sched.Run(pingpong(10), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 5}, Tracer: col})
	short := sched.Run(pingpong(2), core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 6}, Tracer: col})
	if short.Steps >= long.Steps {
		t.Fatalf("want a shorter second schedule, got %d then %d steps", long.Steps, short.Steps)
	}

	recs := obs.CollectorRecords(col)
	if len(recs) != short.Steps {
		t.Fatalf("exported %d records, want %d", len(recs), short.Steps)
	}
	for i, rec := range recs {
		if rec.Step != i {
			t.Fatalf("record %d holds step %d; stale data leaked across recycling", i, rec.Step)
		}
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, col); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(trace.Bytes())); err != nil {
		t.Fatalf("recycled collector's trace invalid: %v", err)
	}
}
