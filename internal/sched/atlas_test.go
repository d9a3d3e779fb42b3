package sched

import (
	"testing"

	"surw/internal/atlas"
)

// TestAtlasNonPerturbation pins the atlas covenant at the engine level:
// attaching an Accum never changes a schedule — results (hashes, traces,
// failures) are bit-identical with and without it, across every program
// class, on both the batched fast path and the verbatim slow loop.
func TestAtlasNonPerturbation(t *testing.T) {
	for _, batching := range []bool{false, true} {
		acc := &atlas.Accum{}
		plainPool, atlasPool := NewPool(), NewPool()
		for name, prog := range poolPrograms() {
			for seed := int64(0); seed < 25; seed++ {
				opts := Options{Base: Base{MaxSteps: 300, Seed: seed}, RecordTrace: true, DisableBatching: !batching}
				plain := plainPool.Run(prog, &pickRandom{}, opts)
				opts.Atlas = acc
				mapped := atlasPool.Run(prog, &pickRandom{}, opts)
				resultsEqual(t, name, seed, plain, mapped)
			}
		}
		if acc.Schedules() == 0 {
			t.Fatalf("batching=%v: atlas saw no schedules", batching)
		}
	}
}

// TestAtlasNonPerturbationCheckpointed covers the RunPrefix/RunFrom path:
// checkpointed replays with the atlas attached stay bit-identical, and —
// because a captured prefix contains only forced (single-enabled) steps —
// replayed schedules report decisions at the same depths as full runs.
func TestAtlasNonPerturbationCheckpointed(t *testing.T) {
	prog := poolPrograms()["vars"]
	plainPool, atlasPool := NewPool(), NewPool()
	acc := &atlas.Accum{}

	plainFirst, plainCp := plainPool.RunPrefix(prog, &pickRandom{}, Options{Base: Base{Seed: 1}})
	mappedFirst, mappedCp := atlasPool.RunPrefix(prog, &pickRandom{}, Options{Base: Base{Seed: 1}, Atlas: acc})
	resultsEqual(t, "prefix", 1, plainFirst, mappedFirst)

	for seed := int64(2); seed < 30; seed++ {
		plain := plainPool.RunFrom(plainCp, prog, &pickRandom{}, Options{Base: Base{Seed: seed}})
		mapped := atlasPool.RunFrom(mappedCp, prog, &pickRandom{}, Options{Base: Base{Seed: seed}, Atlas: acc})
		resultsEqual(t, "replay", seed, plain, mapped)
	}

	// Full (non-checkpointed) runs of the same seeds on a third pool must
	// land their decisions at the same depths: replay skips forced steps
	// only, never true decision points.
	accFull := &atlas.Accum{}
	fullPool := NewPool()
	fullPool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 1}, Atlas: accFull})
	for seed := int64(2); seed < 30; seed++ {
		fullPool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: seed}, Atlas: accFull})
	}
	snap := acc.Snapshot()
	snapFull := accFull.Snapshot()
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
// depth-4 density grid is populated.
func TestAtlasCountsBitshift(t *testing.T) {
	reg := atlas.New()
	cell := reg.Cell("vars", "pickRandom")
	pool := NewPool()
	prog := poolPrograms()["vars"]
	const n = 64
	var stage atlas.Accum
	for seed := int64(0); seed < n; seed++ {
		r := pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: seed}, Atlas: &stage})
		cell.ObserveSchedule(r.ClassHash)
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
	if len(cs.Grids) == 0 || cs.Grids[0].Depth != atlas.GridDepths[0] || cs.Grids[0].Samples == 0 {
		t.Fatalf("depth-%d grid not populated: %+v", atlas.GridDepths[0], cs.Grids)
	}
	if cs.Uniformity == nil || cs.Uniformity.Samples != n {
		t.Fatalf("uniformity tracker missing or short: %+v", cs.Uniformity)
	}
}

// TestAtlasAttachedNoExtraAllocs holds the attached-atlas hot path to the
// same steady-state allocation count as the nil-atlas path: the engine
// side of the atlas is a fixed block of counters, nothing else.
func TestAtlasAttachedNoExtraAllocs(t *testing.T) {
	prog := poolPrograms()["vars"]
	acc := &atlas.Accum{}
	pool := NewPool()
	pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 0}, Atlas: acc}) // warm-up
	with := testing.AllocsPerRun(50, func() {
		pool.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 1}, Atlas: acc})
	})
	pool2 := NewPool()
	pool2.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 0}})
	without := testing.AllocsPerRun(50, func() {
		pool2.Run(prog, &pickRandom{}, Options{Base: Base{Seed: 1}})
	})
	if with > without {
		t.Fatalf("attached atlas allocates %.0f/schedule, nil atlas %.0f; attachment must be free", with, without)
	}
}
