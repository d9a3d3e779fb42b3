package sched_test

// The atlas attaches to the engine as a sched.Tracer, like any observer;
// these tests hold what that attachment promises on every engine path.

import (
	"reflect"
	"testing"

	"surw/internal/atlas"
	"surw/internal/sched"
)

// TestAtlasNonPerturbation pins the atlas covenant at the engine level:
// attaching an Accum as Options.Tracer never changes a schedule — results
// (hashes, failures) are bit-identical with and without it, across
// every program class, on both the batched fast path and the verbatim slow
// loop — and the two loops show it the same decisions.
func TestAtlasNonPerturbation(t *testing.T) {
	var maps [2]atlas.CellSnapshot
	for i, batching := range []bool{false, true} {
		acc := &atlas.Accum{}
		plainPool, atlasPool := sched.NewPool(), sched.NewPool()
		for name, prog := range sched.PoolPrograms() {
			for seed := int64(0); seed < 25; seed++ {
				opts := sched.Options{Base: sched.Base{MaxSteps: 300, Seed: seed}, DisableBatching: !batching}
				plain := plainPool.Run(prog, &sched.PickRandom{}, opts)
				opts.Tracer = acc
				mapped := atlasPool.Run(prog, &sched.PickRandom{}, opts)
				sched.ResultsEqual(t, name, seed, plain, mapped)
			}
		}
		if maps[i] = drained(acc); maps[i].Schedules == 0 || maps[i].Decisions == 0 {
			t.Fatalf("batching=%v: atlas saw %d schedules, %d decisions", batching, maps[i].Schedules, maps[i].Decisions)
		}
	}
	if !reflect.DeepEqual(maps[0], maps[1]) {
		t.Fatalf("the slow loop and the batched engine mapped different spaces:\nslow:    %+v\nbatched: %+v", maps[0], maps[1])
	}
}

// TestAtlasNonPerturbationCheckpointed covers the RunPrefix/RunFrom path:
// checkpointed replays with the atlas attached stay bit-identical, and —
// because a captured prefix contains only forced (single-enabled) steps —
// replayed schedules report decisions at the same depths as full runs.
func TestAtlasNonPerturbationCheckpointed(t *testing.T) {
	prog := sched.PoolPrograms()["vars"]
	plainPool, atlasPool := sched.NewPool(), sched.NewPool()
	acc := &atlas.Accum{}

	plainFirst, plainCp := plainPool.RunPrefix(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 1}})
	mappedFirst, mappedCp := atlasPool.RunPrefix(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 1}, Tracer: acc})
	sched.ResultsEqual(t, "prefix", 1, plainFirst, mappedFirst)

	for seed := int64(2); seed < 30; seed++ {
		plain := plainPool.RunFrom(plainCp, prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: seed}})
		mapped := atlasPool.RunFrom(mappedCp, prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: seed}, Tracer: acc})
		sched.ResultsEqual(t, "replay", seed, plain, mapped)
	}

	// Full (non-checkpointed) runs of the same seeds on a third pool must
	// land their decisions at the same depths: replay skips forced steps
	// only, never true decision points.
	accFull := &atlas.Accum{}
	fullPool := sched.NewPool()
	fullPool.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 1}, Tracer: accFull})
	for seed := int64(2); seed < 30; seed++ {
		fullPool.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: seed}, Tracer: accFull})
	}
	snap := drained(acc)
	snapFull := drained(accFull)
	if snap.Decisions != snapFull.Decisions {
		t.Fatalf("checkpointed runs recorded %d decisions, full runs %d", snap.Decisions, snapFull.Decisions)
	}
	if len(snap.Depths) != len(snapFull.Depths) {
		t.Fatalf("depth profiles diverged: %d vs %d depths", len(snap.Depths), len(snapFull.Depths))
	}
	for i := range snap.Depths {
		if snap.Depths[i].Depth != snapFull.Depths[i].Depth || snap.Depths[i].Decisions != snapFull.Depths[i].Decisions {
			t.Fatalf("depth %d: checkpointed %+v vs full %+v", i, snap.Depths[i], snapFull.Depths[i])
		}
	}
}

// TestAtlasCountsBitshift sanity-checks the cartography on the canonical
// two-writer program: every schedule records at least one true decision,
// per-depth branch histograms sum to the depth's decision count, and the
// profile starts at depth 1.
func TestAtlasCountsBitshift(t *testing.T) {
	reg := atlas.New()
	cell := reg.Cell("vars", "pickRandom")
	pool := sched.NewPool()
	prog := sched.PoolPrograms()["vars"]
	const n = 64
	var stage atlas.Accum
	for seed := int64(0); seed < n; seed++ {
		pool.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: seed}, Tracer: &stage})
	}
	stage.DrainInto(cell)
	snap := reg.Snapshot()
	if len(snap.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(snap.Cells))
	}
	cs := snap.Cells[0]
	if cs.Schedules != n {
		t.Fatalf("schedules = %d, want %d", cs.Schedules, n)
	}
	if cs.Decisions == 0 || cs.MaxDepth == 0 {
		t.Fatalf("no decisions recorded: %+v", cs)
	}
	for _, p := range cs.Depths {
		var sum uint64
		for _, b := range p.Branch {
			sum += b
		}
		if sum != p.Decisions {
			t.Fatalf("depth %d: branch histogram sums to %d, want %d", p.Depth, sum, p.Decisions)
		}
		if p.MeanEnabled() < 2 {
			t.Fatalf("depth %d: mean enabled %.2f < 2 at a true decision point", p.Depth, p.MeanEnabled())
		}
	}
	if cs.Depths[0].Depth != 1 || cs.Depths[0].Decisions != n {
		t.Fatalf("depth 1 holds %+v; want one decision per schedule", cs.Depths[0])
	}
}

// drained moves acc's counts into a fresh registry's cell and returns that
// cell's snapshot.
func drained(acc *atlas.Accum) atlas.CellSnapshot {
	reg := atlas.New()
	acc.DrainInto(reg.Cell("t", "a"))
	return reg.Snapshot().Cells[0]
}

// TestAtlasAttachedNoExtraAllocs holds the attached-atlas hot path to the
// same steady-state allocation count as the nil-atlas path: the engine
// side of the atlas is a fixed block of counters, nothing else.
func TestAtlasAttachedNoExtraAllocs(t *testing.T) {
	prog := sched.PoolPrograms()["vars"]
	acc := &atlas.Accum{}
	pool := sched.NewPool()
	pool.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 0}, Tracer: acc}) // warm-up
	with := testing.AllocsPerRun(50, func() {
		pool.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 1}, Tracer: acc})
	})
	pool2 := sched.NewPool()
	pool2.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 0}})
	without := testing.AllocsPerRun(50, func() {
		pool2.Run(prog, &sched.PickRandom{}, sched.Options{Base: sched.Base{Seed: 1}})
	})
	if with > without {
		t.Fatalf("attached atlas allocates %.0f/schedule, nil atlas %.0f; attachment must be free", with, without)
	}
}
