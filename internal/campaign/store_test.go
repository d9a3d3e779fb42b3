package campaign_test

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"surw/internal/campaign"
	"surw/internal/runner"
)

func key(session int) runner.SessionKey {
	return runner.SessionKey{
		CellKey: runner.CellKey{Target: "T", Algorithm: "SURW", Limit: 100, Seed: 7, StopAtFirstBug: true},
		Session: session,
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

// A record that does not parse, with another line behind it, is corruption
// to Poll as it is to OpenRead: Poll indexes the records before it and
// reports it, at every poll, rather than stopping there in silence. A bad
// last line is waited on — the writer may still be cutting it.
func TestPollReportsCorruptRecord(t *testing.T) {
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
	runs := filepath.Join(dir, "runs.jsonl")
	appendRuns := func(text string) {
		t.Helper()
		f, err := os.OpenFile(runs, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(text); err != nil {
			t.Fatal(err)
		}
	}
	line := string(campaign.AppendRecord(nil, key(2), session(4))) + "\n"

	appendRuns(line + "{garbage\n")
	if n, err := r.Poll(); err != nil || n != 1 {
		t.Fatalf("Poll over a bad last line = (%d, %v), want (1, nil): the line may still be being cut", n, err)
	}
	appendRuns(line)
	for i := 0; i < 2; i++ {
		n, err := r.Poll()
		if err == nil || !strings.Contains(err.Error(), "corrupt record") {
			t.Fatalf("Poll %d over a bad line with a record behind it = (%d, %v), want a corrupt-record error", i, n, err)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("reader Len = %d, want the 2 records before the bad line", r.Len())
	}
	if _, err := campaign.OpenRead(dir); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("OpenRead = %v, want the same corrupt-record error", err)
	}
}

// OpenRead on a directory that is not a store must fail loudly.
func TestOpenReadRequiresManifest(t *testing.T) {
	if _, err := campaign.OpenRead(t.TempDir()); err == nil {
		t.Fatal("OpenRead accepted a bare directory")
	}
}

// Store owns what it is handed: a session whose text round-trips is
// indexed and returned as the very pointer, made canonical in place (Flight
// cleared, nil maps filled, an empty series nil); one whose text cannot is
// replaced by the record its line parses to. Lookup returns what Store did.
func TestStoreKeepsWhatItIsHanded(t *testing.T) {
	st, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess := &runner.Session{FirstBug: 3, Schedules: 3, Flight: "flight_x.json",
		Cov: &runner.Coverage{Interleavings: map[uint64]int{7: 3}, Series: []runner.CovPoint{}}}
	got, err := st.Store(key(0), sess)
	if err != nil {
		t.Fatal(err)
	}
	if got != sess {
		t.Fatalf("Store returned %p, not the session it was handed (%p)", got, sess)
	}
	if sess.Flight != "" || sess.Bugs == nil || sess.Cov.Classes == nil || sess.Cov.Behaviors == nil || sess.Cov.Series != nil {
		t.Fatalf("the stored session is not canonical: %+v, cov %+v", sess, sess.Cov)
	}
	if looked, ok := st.Lookup(key(0)); !ok || looked != sess {
		t.Fatalf("Lookup = %p, %v; want the stored %p", looked, ok, sess)
	}

	odd := &runner.Session{FirstBug: 1, Schedules: 1, Bugs: map[string]int{"bug\xff": 1}}
	got, err = st.Store(key(1), odd)
	if err != nil {
		t.Fatal(err)
	}
	if got == odd || got.Bugs["bug\ufffd"] != 1 || len(got.Bugs) != 1 {
		t.Fatalf("a non-UTF-8 bug id: Store returned %p %+v, want a parsed record spelling U+FFFD", got, got)
	}
	if looked, _ := st.Lookup(key(1)); looked != got {
		t.Fatalf("Lookup = %p, want the parsed record Store returned (%p)", looked, got)
	}
}

// A second Store of a key the store holds appends nothing and returns the
// indexed record, so the live index and a reopened one agree.
func TestStoreIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Store(key(0), session(17))
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.Store(key(0), session(-1))
	if err != nil {
		t.Fatal(err)
	}
	if again != first || st.Len() != 1 {
		t.Fatalf("second Store returned %+v (Len %d), want the indexed %+v", again, st.Len(), first)
	}
	live, _ := st.Lookup(key(0))
	st.Close()
	if lines := strings.Count(string(readRuns(t, dir)), "\n"); lines != 1 {
		t.Fatalf("runs.jsonl has %d lines, want 1", lines)
	}
	re, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if reopened, ok := re.Lookup(key(0)); !ok || !reflect.DeepEqual(reopened, live) {
		t.Fatalf("reopened Lookup = %+v, live Lookup = %+v", reopened, live)
	}
}

// A record's session number indexes a map, not an array: a hostile one
// costs what any record does, on Open and in the aggregates.
func TestStoreSparseSessionNumber(t *testing.T) {
	dir := t.TempDir()
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	far := key(1 << 40)
	if _, err := st.Store(far, session(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store(key(0), session(5)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	re, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	agg := re.Aggregate()
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Fatalf("opening and aggregating two records allocated %d bytes", grew)
	}
	if _, ok := re.Lookup(far); !ok || agg.Sessions != 2 || agg.Cells[0].SessionsStored != 2 {
		t.Fatalf("session 1<<40 lost: %+v", agg)
	}
	if acc := agg.Cells[0].BugAccumulation; len(acc) != 1 || acc[0].Session != 1 {
		t.Fatalf("bug accumulation %+v, want one point at session 1 (session order)", acc)
	}
}

func readRuns(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkStoreAppend prices one Store.Store — the local half of what a
// fleet session costs the coordinator — on a short hunt's record (a first
// bug, one bug id, no coverage), into a store on tmpfs where there is one,
// so that what is read is the append path's own work and not the disk's
// fsync: the record encoded on the store's buffer and indexed as it was
// handed over, a pointer in its cell's table. ci.sh gates allocs/op and
// B/op.
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
