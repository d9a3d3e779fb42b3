package atlas

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"surw/internal/sched"
)

// snap materializes a bare accumulator into its exported form.
func snap(a *Accum) CellSnapshot {
	var cs CellSnapshot
	a.fill(&cs)
	return cs
}

func TestAccumDecisionBuckets(t *testing.T) {
	var a Accum
	a.BeginSchedule("")
	// Three decisions down one schedule: depths 1, 2, 4 with varying n.
	a.record(1, 2)
	a.record(2, 3)
	a.record(4, 2)
	cs := snap(&a)
	if cs.Schedules != 1 || cs.Decisions != 3 || cs.MaxDepth != 4 {
		t.Fatalf("header wrong: %+v", cs)
	}
	if len(cs.Depths) != 3 {
		t.Fatalf("want 3 populated depths, got %+v", cs.Depths)
	}
	d2 := cs.Depths[1]
	if d2.Depth != 2 || d2.Decisions != 1 || d2.EnabledSum != 3 || d2.Branch[3] != 1 {
		t.Fatalf("depth 2 profile wrong: %+v", d2)
	}
}

func TestAccumFoldsOverflow(t *testing.T) {
	var a Accum
	a.record(MaxDepth+7, MaxBranch+9) // deep + wide: folds, never drops
	cs := snap(&a)
	if cs.Decisions != 1 || cs.MaxDepth != MaxDepth {
		t.Fatalf("deep decision dropped: %+v", cs)
	}
	d := cs.Depths[0]
	if d.Depth != MaxDepth || d.Branch[MaxBranch] != 1 {
		t.Fatalf("overflow did not fold into the top buckets: %+v", d)
	}
}

// TestAccumDrainInto: recording through private accumulators and draining
// them into a cell is indistinguishable from recording everything into one
// accumulator, leaves the private ones empty, and drains of nothing add
// nothing — the property the runner's per-worker staging rests on.
func TestAccumDrainInto(t *testing.T) {
	record := func(a *Accum, salt int) {
		a.BeginSchedule("")
		for depth := 1; depth <= 20; depth++ {
			a.record(depth, 2+(depth+salt)%5)
		}
		a.record(MaxDepth+3, MaxBranch+2)
	}
	var direct, stageA, stageB Accum
	var dst Cell
	for i := 1; i <= 6; i++ {
		record(&direct, i)
		stage := &stageA
		if i%2 == 0 {
			stage = &stageB
		}
		record(stage, i)
		if i%3 == 0 {
			stageA.DrainInto(&dst)
		}
	}
	stageA.DrainInto(&dst)
	stageB.DrainInto(&dst)
	stageB.DrainInto(&dst) // already empty
	(*Accum)(nil).DrainInto(&dst)
	want, _ := json.Marshal(snap(&direct))
	got, _ := json.Marshal(snap(&dst.acc))
	if string(got) != string(want) {
		t.Fatalf("drained accumulator differs from direct recording:\n got %s\nwant %s", got, want)
	}
	for _, stage := range []*Accum{&stageA, &stageB} {
		if cs := snap(stage); cs.Schedules != 0 || cs.Decisions != 0 || len(cs.Depths) != 0 {
			t.Fatalf("staging accumulator not empty after drain: %+v", cs)
		}
	}
}

// TestAccumDecideDepths: as a tracer, the accumulator records each true
// decision at the schedule's next depth, skips forced steps, and starts
// every schedule at depth 1.
func TestAccumDecideDepths(t *testing.T) {
	var a Accum
	a.BeginSchedule("")
	for _, n := range []int{2, 1, 3, 1, 1, 2} {
		a.Decide(sched.Decision{Enabled: n}, nil)
	}
	a.EndSchedule(nil)
	a.BeginSchedule("")
	a.Decide(sched.Decision{Enabled: 4}, nil)
	var want Accum
	want.BeginSchedule("")
	want.record(1, 2)
	want.record(2, 3)
	want.record(3, 2)
	want.BeginSchedule("")
	want.record(1, 4)
	if got, w := snap(&a), snap(&want); !reflect.DeepEqual(got, w) {
		t.Fatalf("decided through the tracer:\n got %+v\nwant %+v", got, w)
	}
}

func TestAccumZeroAlloc(t *testing.T) {
	var a Accum
	if n := testing.AllocsPerRun(100, func() {
		a.BeginSchedule("")
		a.Decide(sched.Decision{Enabled: 3}, nil)
		a.Decide(sched.Decision{Enabled: 1}, nil)
		a.EndSchedule(nil)
	}); n != 0 {
		t.Fatalf("a traced schedule allocates %.0f objects; must be zero", n)
	}
}

func TestMergeCells(t *testing.T) {
	var a, b Accum
	a.BeginSchedule("")
	a.record(1, 2)
	a.record(4, 2)
	b.BeginSchedule("")
	b.BeginSchedule("")
	b.record(1, 3)
	b.record(2, 2)
	ca, cb := snap(&a), snap(&b)
	ca.Target, ca.Algorithm = "tgt", "URW"
	cb.Target, cb.Algorithm = "tgt", "URW"
	other := Accum{}
	other.BeginSchedule("")
	co := snap(&other)
	co.Target, co.Algorithm = "aaa", "RW"

	merged := MergeCells([]CellSnapshot{ca}, []CellSnapshot{cb, co})
	if len(merged) != 2 {
		t.Fatalf("want 2 cells, got %d", len(merged))
	}
	if merged[0].Target != "aaa" {
		t.Fatalf("merged cells not sorted: %+v", merged)
	}
	m := merged[1]
	if m.Schedules != 3 || m.Decisions != 4 || m.MaxDepth != 4 {
		t.Fatalf("merged header wrong: %+v", m)
	}
	if len(m.Depths) != 3 || m.Depths[0].Decisions != 2 || m.Depths[0].EnabledSum != 5 {
		t.Fatalf("merged depth profile wrong: %+v", m.Depths)
	}
	// Merging must not alias the inputs.
	if &m.Depths[0].Branch[0] == &ca.Depths[0].Branch[0] {
		t.Fatal("merge aliased an input's branch histogram")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := New()
	c := reg.Cell("tgt", "URW")
	var stage Accum
	stage.BeginSchedule("")
	stage.record(4, 2)
	stage.DrainInto(c)
	s := reg.Snapshot()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, s)
	}
}

func TestSVGRenders(t *testing.T) {
	reg := New()
	c := reg.Cell("tgt", "URW")
	var stage Accum
	for i := 0; i < 300; i++ {
		stage.BeginSchedule("")
		stage.record(1, 2)
		stage.record(4, 3)
	}
	stage.DrainInto(c)
	s := reg.Snapshot()
	cs := s.Cells[0]
	for name, svg := range map[string]string{
		"depth": DepthProfileSVG(cs),
		"doc":   DocumentSVG(s),
	} {
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
			t.Fatalf("%s: not an svg element: %.80s", name, svg)
		}
		if strings.Contains(svg, "NaN") {
			t.Fatalf("%s: rendered NaN", name)
		}
	}
	// Degenerate cells render labelled empty frames, not nothing.
	empty := CellSnapshot{Target: "t", Algorithm: "a"}
	if !strings.Contains(DepthProfileSVG(empty), "no decisions recorded") {
		t.Fatal("empty depth profile lacks placeholder")
	}
}
