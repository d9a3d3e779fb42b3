package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"surw/internal/runner"
)

// faultyFile is runs.jsonl with faults on cue: the next write lands half a
// line and fails (a full disk), or the next sync fails with the whole line
// written, and the cut back to the last good record can be made to fail too.
type faultyFile struct {
	*os.File
	failWrite, failSync, failTruncate bool
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.failWrite {
		f.failWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

// TestFailedAppendLeavesStoreOpenable is the ROADMAP 6.2 regression: an
// append that fails part-way used to leave its bytes in runs.jsonl, the
// re-run session landed behind them, and the next Open refused the file as
// corrupt mid-way. Now the failed append is cut back.
func TestFailedAppendLeavesStoreOpenable(t *testing.T) {
	for _, fault := range []string{"short write", "failed sync"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{File: st.f.(*os.File)}
			st.f = ff
			sess := &runner.Session{FirstBug: 3, Schedules: 3, Bugs: map[string]int{"assert": 1}}
			key := func(i int) runner.SessionKey {
				return runner.SessionKey{Target: "T", Algorithm: "SURW", Limit: 100, Seed: 7, Session: i}
			}
			if _, err := st.Store(key(0), sess); err != nil {
				t.Fatal(err)
			}
			ff.failWrite, ff.failSync = fault == "short write", fault == "failed sync"
			if _, err := st.Store(key(1), sess); !errors.Is(err, errInjected) {
				t.Fatalf("faulted append: err = %v, want the injected fault", err)
			}
			if _, ok := st.Lookup(key(1)); ok || st.Len() != 1 {
				t.Fatalf("a failed append was indexed (Len %d)", st.Len())
			}
			// The session is run again, and more follow.
			for i := 1; i <= 2; i++ {
				if _, err := st.Store(key(i), sess); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after a failed append: %v", err)
			}
			defer re.Close()
			for i := 0; i <= 2; i++ {
				if _, ok := re.Lookup(key(i)); !ok {
					t.Errorf("session %d missing after reopen", i)
				}
			}
			if fi, err := os.Stat(filepath.Join(dir, runsName)); err != nil || fi.Size() != re.offset {
				t.Errorf("runs.jsonl is %d bytes, the index covers %d (%v)", fi.Size(), re.offset, err)
			}
		})
	}
}

// TestFailedAppendThatCannotBeCutClosesTheStore: with the partial line
// stuck in the file, nothing more may be appended behind it — what is there
// is still a store with a torn tail, which Open forgives.
func TestFailedAppendThatCannotBeCutClosesTheStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{File: st.f.(*os.File)}
	st.f = ff
	sess := &runner.Session{FirstBug: -1, Schedules: 100}
	k0 := runner.SessionKey{Target: "T", Algorithm: "SURW", Limit: 100}
	k1 := k0
	k1.Session = 1
	if _, err := st.Store(k0, sess); err != nil {
		t.Fatal(err)
	}
	ff.failWrite, ff.failTruncate = true, true
	if _, err := st.Store(k1, sess); !errors.Is(err, errInjected) {
		t.Fatalf("faulted append: err = %v, want the injected fault", err)
	}
	if _, err := st.Store(k1, sess); err == nil {
		t.Fatal("the store took an append behind a partial line it could not cut back")
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Lookup(k0); !ok || re.Len() != 1 {
		t.Fatalf("reopened with %d records, want the one stored before the fault", re.Len())
	}
}
