package atlas

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestAccumDecisionBuckets(t *testing.T) {
	var a Accum
	a.BeginSchedule()
	// Three decisions down one schedule: depths 1, 2, 4 with varying n.
	a.Decision(1, 2, 0x11)
	a.Decision(2, 3, 0x22)
	a.Decision(4, 2, 0x1ff) // lands in the depth-4 grid, bucket 0xff
	cs := a.Snapshot()
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
	if len(cs.Grids) != 1 || cs.Grids[0].Depth != 4 {
		t.Fatalf("want exactly the depth-4 grid populated, got %+v", cs.Grids)
	}
	g := cs.Grids[0]
	if g.Buckets[0xff] != 1 || g.Samples != 1 || g.Occupied != 1 || g.EntropyBits != 0 {
		t.Fatalf("grid bucketing wrong: %+v", g)
	}
}

func TestAccumFoldsOverflow(t *testing.T) {
	var a Accum
	a.Decision(MaxDepth+7, MaxBranch+9, 3) // deep + wide: folds, never drops
	cs := a.Snapshot()
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
	record := func(a *Accum, salt uint64) {
		a.BeginSchedule()
		for depth := 1; depth <= 20; depth++ {
			a.Decision(depth, 2+depth%5, salt*uint64(depth)*0x9E3779B97F4A7C15)
		}
		a.Decision(MaxDepth+3, MaxBranch+2, salt)
	}
	var direct, stageA, stageB Accum
	var dst Cell
	for i := uint64(1); i <= 6; i++ {
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
	want, _ := json.Marshal(direct.Snapshot())
	got, _ := json.Marshal(dst.acc.Snapshot())
	if string(got) != string(want) {
		t.Fatalf("drained accumulator differs from direct recording:\n got %s\nwant %s", got, want)
	}
	for _, stage := range []*Accum{&stageA, &stageB} {
		if cs := stage.Snapshot(); cs.Schedules != 0 || cs.Decisions != 0 || len(cs.Depths) != 0 || len(cs.Grids) != 0 {
			t.Fatalf("staging accumulator not empty after drain: %+v", cs)
		}
	}
}

func TestAccumZeroAlloc(t *testing.T) {
	var a Accum
	if n := testing.AllocsPerRun(100, func() {
		a.BeginSchedule()
		a.Decision(4, 3, 42)
	}); n != 0 {
		t.Fatalf("Decision allocates %.0f objects; must be zero", n)
	}
	var nilAcc *Accum
	if n := testing.AllocsPerRun(100, func() {
		nilAcc.BeginSchedule()
		nilAcc.Decision(4, 3, 42)
	}); n != 0 {
		t.Fatalf("nil accumulator allocates %.0f objects; must be zero", n)
	}
}

func TestDriftUniformStreamPasses(t *testing.T) {
	var d Drift
	// 64 classes, 16 samples each, interleaved: a perfectly uniform stream.
	for round := 0; round < 16; round++ {
		for class := uint64(0); class < 64; class++ {
			d.Observe(class)
		}
	}
	s := d.Snapshot()
	if s.Alarm {
		t.Fatalf("uniform stream tripped the drift alarm: %+v", s)
	}
	if s.P < 0.99 {
		t.Fatalf("exactly-uniform counts should score p≈1, got %+v", s)
	}
	if s.Samples != 1024 || s.Classes != 64 {
		t.Fatalf("stream accounting wrong: %+v", s)
	}
}

func TestDriftBiasedStreamAlarms(t *testing.T) {
	var d Drift
	// One dominant class with a thin tail: grossly non-uniform.
	for i := 0; i < 300; i++ {
		d.Observe(1)
	}
	for i := 0; i < 20; i++ {
		d.Observe(2)
		d.Observe(3)
	}
	s := d.Snapshot()
	if !s.Alarm {
		t.Fatalf("biased stream did not alarm: %+v", s)
	}
	if s.P >= DriftAlarmP {
		t.Fatalf("p = %g, want < %g", s.P, DriftAlarmP)
	}
}

func TestDriftAlarmLatches(t *testing.T) {
	var d Drift
	for i := 0; i < 320; i++ { // trip at an in-stream checkpoint
		d.Observe(1)
		if i%16 == 0 {
			d.Observe(uint64(100 + i))
		}
	}
	if !d.Snapshot().Alarm {
		t.Skip("stream did not trip mid-run; latching untestable here")
	}
	// Washing the statistic out afterwards must not clear the alarm.
	for class := uint64(0); class < 8; class++ {
		for i := 0; i < 400; i++ {
			d.Observe(1000 + class)
		}
	}
	if !d.Snapshot().Alarm {
		t.Fatal("drift alarm did not latch")
	}
}

func TestDriftSingleClassIsInconclusive(t *testing.T) {
	// A single observed class carries no within-support evidence: the
	// streaming test stays p=1. (Concentration shows up in the yield
	// signals — GT unseen ≈ 0 — not in the chi-square.)
	var d Drift
	for i := 0; i < 500; i++ {
		d.Observe(7)
	}
	if s := d.Snapshot(); s.Alarm || s.P != 1 {
		t.Fatalf("single-class stream should be inconclusive: %+v", s)
	}
}

func TestDriftFromCountsMatchesStream(t *testing.T) {
	var d Drift
	counts := map[uint64]int{1: 100, 2: 120, 3: 80, 4: 100}
	for c, n := range counts {
		for i := 0; i < n; i++ {
			d.Observe(c)
		}
	}
	a, b := d.test(), DriftFromCounts(counts)
	if a.ChiSquare != b.ChiSquare || a.P != b.P || a.Samples != b.Samples || a.Classes != b.Classes {
		t.Fatalf("stream %+v vs counts %+v", a, b)
	}
}

func TestMergeCells(t *testing.T) {
	var a, b Accum
	a.BeginSchedule()
	a.Decision(1, 2, 1)
	a.Decision(4, 2, 9)
	b.BeginSchedule()
	b.BeginSchedule()
	b.Decision(1, 3, 2)
	b.Decision(2, 2, 5)
	ca, cb := a.Snapshot(), b.Snapshot()
	ca.Target, ca.Algorithm = "tgt", "URW"
	cb.Target, cb.Algorithm = "tgt", "URW"
	other := Accum{}
	other.BeginSchedule()
	co := other.Snapshot()
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
	stage.BeginSchedule()
	stage.Decision(4, 2, 77)
	stage.DrainInto(c)
	c.ObserveSchedule(1)
	c.ObserveSchedule(2)
	s := reg.Snapshot()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != Version || len(back.Cells) != 1 || back.Cells[0].Uniformity == nil {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestSVGRenders(t *testing.T) {
	reg := New()
	c := reg.Cell("tgt", "URW")
	var stage Accum
	for i := uint64(0); i < 300; i++ {
		stage.BeginSchedule()
		stage.Decision(1, 2, mix64(i))
		stage.Decision(4, 3, mix64(i*7))
		c.ObserveSchedule(i % 16)
	}
	stage.DrainInto(c)
	s := reg.Snapshot()
	cs := s.Cells[0]
	for name, svg := range map[string]string{
		"heatmap": HeatmapSVG(cs),
		"depth":   DepthProfileSVG(cs),
		"doc":     DocumentSVG(s),
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
	if !strings.Contains(HeatmapSVG(empty), "no density samples") {
		t.Fatal("empty heatmap lacks placeholder")
	}
	if !strings.Contains(DepthProfileSVG(empty), "no decisions recorded") {
		t.Fatal("empty depth profile lacks placeholder")
	}
}
