package campaign_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"surw/internal/campaign"
	"surw/internal/runner"
)

func key(session int) runner.SessionKey {
	return runner.SessionKey{
		Target: "T", Algorithm: "SURW", Limit: 100, Seed: 7,
		Session: session, StopAtFirstBug: true,
	}
}

func session(firstBug int) *runner.Session {
	s := &runner.Session{FirstBug: firstBug, Schedules: 42, Bugs: map[string]int{}}
	if firstBug >= 0 {
		s.Bugs["assert:reorder"] = 3
	}
	return s
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := st.Store(key(0), session(17))
	if err != nil {
		t.Fatal(err)
	}
	if canon.FirstBug != 17 || canon.Schedules != 42 || canon.Bugs["assert:reorder"] != 3 {
		t.Fatalf("canonical session mangled: %+v", canon)
	}
	if _, err := st.Store(key(1), session(-1)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	got, ok := re.Lookup(key(0))
	if !ok || got.FirstBug != 17 || got.Bugs["assert:reorder"] != 3 {
		t.Fatalf("Lookup after reopen = %+v, %v", got, ok)
	}
	if _, ok := re.Lookup(key(9)); ok {
		t.Fatal("Lookup invented a session")
	}
}

// A crash mid-append leaves a torn trailing line; reopening must recover
// every complete record, drop the torn bytes, and keep appending cleanly.
func TestStoreRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store(key(0), session(5)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	runs := filepath.Join(dir, "runs.jsonl")
	f, err := os.OpenFile(runs, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":{"target":"T","alg`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := campaign.Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if re.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1", re.Len())
	}
	if _, err := re.Store(key(1), session(-1)); err != nil {
		t.Fatal(err)
	}
	re.Close()

	// Every line of the repaired file must be complete JSON.
	data, err := os.ReadFile(runs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("repaired file has %d lines, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not a complete record: %q", i, line)
		}
	}

	final, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Len() != 2 {
		t.Fatalf("final Len = %d, want 2", final.Len())
	}
}

// Corruption in the middle of the file (not a crash artifact) must refuse
// to open rather than silently dropping completed work.
func TestStoreRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store(key(0), session(5)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	runs := filepath.Join(dir, "runs.jsonl")
	data, _ := os.ReadFile(runs)
	if err := os.WriteFile(runs, append([]byte("not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Open(dir); err == nil {
		t.Fatal("open accepted mid-file corruption")
	}
}

// OpenRead + Poll: a reader tails records another handle appends.
func TestStorePollTailsWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Store(key(0), session(9)); err != nil {
		t.Fatal(err)
	}

	r, err := campaign.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("reader Len = %d, want 1", r.Len())
	}
	if _, err := r.Store(key(5), session(1)); err == nil {
		t.Fatal("read-only store accepted an append")
	}

	ch := r.Events().Subscribe()
	defer r.Events().Unsubscribe(ch)
	if _, err := w.Store(key(1), session(-1)); err != nil {
		t.Fatal(err)
	}
	n, err := r.Poll()
	if err != nil || n != 1 {
		t.Fatalf("Poll = (%d, %v), want (1, nil)", n, err)
	}
	if r.Len() != 2 {
		t.Fatalf("reader Len after poll = %d, want 2", r.Len())
	}
	ev := <-ch
	if ev.Type != "session" || ev.Target != "T" || ev.Session != 1 {
		t.Fatalf("poll event = %+v", ev)
	}
	// Nothing new: Poll is idempotent.
	if n, err := r.Poll(); err != nil || n != 0 {
		t.Fatalf("second Poll = (%d, %v), want (0, nil)", n, err)
	}
}

// OpenRead on a directory that is not a store must fail loudly.
func TestOpenReadRequiresManifest(t *testing.T) {
	if _, err := campaign.OpenRead(t.TempDir()); err == nil {
		t.Fatal("OpenRead accepted a bare directory")
	}
}

// BenchmarkStoreAppend prices one Store.Store — the local half of what a
// fleet session costs the coordinator — on a short hunt's record (a first
// bug, one bug id, no coverage), into a store on tmpfs where there is one,
// so that what is read is the append path's own work and not the disk's
// fsync: the record encoded on the store's buffer, the index's copy of the
// session and the caller's. ci.sh gates allocs/op and B/op.
func BenchmarkStoreAppend(b *testing.B) {
	dir := b.TempDir()
	if shm, err := os.MkdirTemp("/dev/shm", "surw-store-bench"); err == nil {
		dir = shm
		defer os.RemoveAll(shm)
	}
	st, err := campaign.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	sess := session(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Store(key(i), sess); err != nil {
			b.Fatal(err)
		}
	}
}
