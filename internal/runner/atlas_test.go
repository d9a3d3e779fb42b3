package runner_test

import (
	"testing"

	"surw/internal/atlas"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// TestAtlasNonPerturbation pins the atlas covenant at the runner level:
// RunTarget with an atlas attached is byte-identical — FirstBug, bugs,
// coverage maps, series, every fingerprint — to RunTarget without one,
// sequentially and in parallel, and the atlas actually observed the run.
func TestAtlasNonPerturbation(t *testing.T) {
	tgt, ok := sctbench.ByName("Fig1/bitshift_3")
	if !ok {
		t.Fatal("unknown target Fig1/bitshift_3")
	}
	for _, alg := range []string{"URW", "RW", "SURW"} {
		for _, workers := range []int{1, 4} {
			cfg := runner.Config{
				Sessions:      3,
				Limit:         40,
				Seed:          23,
				Coverage:      true,
				CoverageEvery: 20,
				Workers:       workers,
			}
			plain, err := runner.RunTarget(tgt, alg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := atlas.New()
			cfg.Atlas = reg
			mapped, err := runner.RunTarget(tgt, alg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Equal(mapped) {
				t.Fatalf("%s workers=%d: atlas attachment changed the result\nplain:  %+v\natlas: %+v",
					alg, workers, plain, mapped)
			}
			snap := reg.Snapshot()
			if len(snap.Cells) != 1 {
				t.Fatalf("%s: want one atlas cell, got %d", alg, len(snap.Cells))
			}
			cs := snap.Cells[0]
			if cs.Target != tgt.Name || cs.Algorithm != alg {
				t.Fatalf("cell mislabelled: %+v", cs)
			}
			// 3 sessions × 40 schedules, plus one RunPrefix capture per
			// session counted as the session's schedule 0.
			if cs.Schedules != 3*40 {
				t.Fatalf("%s workers=%d: atlas saw %d schedules, want %d", alg, workers, cs.Schedules, 3*40)
			}
			if cs.Decisions == 0 || len(cs.Depths) == 0 {
				t.Fatalf("%s: cartography empty: %+v", alg, cs)
			}
		}
	}
}

// TestAtlasStoreHitsFeedNothing holds the resume contract: sessions
// satisfied from the store do not re-run, so they contribute nothing to
// the atlas — its counts reflect executed schedules only.
func TestAtlasStoreHitsFeedNothing(t *testing.T) {
	tgt, ok := sctbench.ByName("Fig1/bitshift_3")
	if !ok {
		t.Fatal("unknown target")
	}
	cfg := runner.Config{Sessions: 2, Limit: 20, Seed: 7, Workers: 1}
	store := newMemStore()
	cfg.Store = store

	reg := atlas.New()
	cfg.Atlas = reg
	first, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := reg.Snapshot().Cells[0].Schedules

	again, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(again) {
		t.Fatal("resumed batch diverged")
	}
	if got := reg.Snapshot().Cells[0].Schedules; got != afterFirst {
		t.Fatalf("store-hit sessions fed the atlas: %d schedules after resume, want %d", got, afterFirst)
	}
}

// memStore is a minimal in-memory SessionStore for resume tests.
type memStore struct {
	m map[runner.SessionKey]*runner.Session
}

func newMemStore() *memStore { return &memStore{m: make(map[runner.SessionKey]*runner.Session)} }

func (s *memStore) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	v, ok := s.m[k]
	return v, ok
}

func (s *memStore) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	s.m[k] = sess
	return sess, nil
}
