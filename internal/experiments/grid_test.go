package experiments

import (
	"fmt"
	"sync"
	"testing"

	"surw/internal/runner"
)

// gridScale is tinyScale cut down to what the three grids need to have
// several cells of several sessions each.
func gridScale(workers int) Scale {
	sc := tinyScale()
	sc.Sessions, sc.Limit, sc.RaceBenchLimit, sc.FTPLimit = 3, 60, 25, 40
	sc.SCTTargets = []string{"CS/reorder_4", "CS/twostage_20", "CS/wronglock_3"}
	sc.SCTAlgs = []string{"SURW", "PCT-3", "RW"}
	sc.Workers = workers
	return sc
}

// watchStore is a SessionStore that holds nothing: it counts the sessions
// between their Lookup and their Store, and records every CellDone.
type watchStore struct {
	mu               sync.Mutex
	inFlight, peak   int
	cells            map[string]*runner.Result // "target/alg/seed" → what CellDone was handed
	repeatedCellDone []string
}

func (w *watchStore) Lookup(runner.SessionKey) (*runner.Session, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inFlight++; w.inFlight > w.peak {
		w.peak = w.inFlight
	}
	return nil, false
}

func (w *watchStore) Store(_ runner.SessionKey, s *runner.Session) (*runner.Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inFlight--
	return s, nil
}

func cellID(target, alg string, seed int64) string { return fmt.Sprintf("%s/%s/%d", target, alg, seed) }

func (w *watchStore) CellDone(target, alg string, _ int, seed int64, res *runner.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := cellID(target, alg, seed)
	if w.cells[id] != nil {
		w.repeatedCellDone = append(w.repeatedCellDone, id)
	}
	w.cells[id] = res
}

// TestWorkersBoundsSessionsInFlight: Workers is how many sessions run at
// once — of the whole grid, not of each cell of it. While cells fanned over
// Workers and each cell's sessions over Workers again, a grid at Workers 2
// had 4 in flight.
func TestWorkersBoundsSessionsInFlight(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		sc := gridScale(workers)
		store := &watchStore{cells: map[string]*runner.Result{}}
		sc.Store = store
		SCTBench(sc, nil)
		if store.inFlight != 0 || store.peak < 1 || store.peak > workers {
			t.Errorf("Workers %d: at most %d sessions in flight, %d still open", workers, store.peak, store.inFlight)
		}
	}
}

// TestGridCellsMatchRunTarget: a grid run is an execution-order change
// only. Each cell of each of the three grids, run as part of its grid's
// plan at Workers 1 and 4, equals a plain RunTarget of that cell alone, and
// the store hears CellDone once a cell, with the Result the grid returns.
func TestGridCellsMatchRunTarget(t *testing.T) {
	for name, gridOf := range grids {
		var want []*runner.Result
		for _, c := range gridOf(gridScale(1)).cells {
			res, err := runner.RunTarget(c.Target, c.Alg, c.Config)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		for _, workers := range []int{1, 4} {
			sc := gridScale(workers)
			store := &watchStore{cells: map[string]*runner.Result{}}
			sc.Store = store
			g := gridOf(sc)
			got := run(sc, g, nil).results
			if len(got) != len(want) || len(store.cells) != len(want) || len(store.repeatedCellDone) > 0 {
				t.Fatalf("%s, Workers %d: %d results and %d CellDone (repeated: %v) for %d cells",
					name, workers, len(got), len(store.cells), store.repeatedCellDone, len(want))
			}
			for i, c := range g.cells {
				if !got[i].Equal(want[i]) {
					t.Errorf("%s, Workers %d: cell %d (%s/%s) differs from its RunTarget", name, workers, i, c.Target.Name, c.Alg)
				}
				if store.cells[cellID(c.Target.Name, c.Alg, c.Config.Seed)] != got[i] {
					t.Errorf("%s, Workers %d: cell %d (%s/%s): CellDone was not handed the cell's Result", name, workers, i, c.Target.Name, c.Alg)
				}
			}
		}
	}
}

// TestFTPTrialKeysNameTheirProgram: a trial's client scripts come from its
// program seed, which is no field of a session key, so the trial target's
// name carries it. `-seed 1` trial 1 and `-seed 13002` trial 0 run on the
// same session seed over different scripts, and used to share their keys.
func TestFTPTrialKeysNameTheirProgram(t *testing.T) {
	a, b := tinyScale(), tinyScale()
	a.Seed, b.Seed = 1, 13002
	ka, kb := Plan(a, "ftp")[len(FTPAlgorithms)], Plan(b, "ftp")[0] // trial 1's first cell, trial 0's
	if ka.Seed != kb.Seed || ka.Algorithm != kb.Algorithm {
		t.Fatalf("the two cells were to share everything but their program: %+v, %+v", ka, kb)
	}
	if ka == kb {
		t.Fatalf("two programs under one key: %+v", ka)
	}
}
