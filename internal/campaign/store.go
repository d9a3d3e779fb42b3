package campaign

// The run-store: an append-only runs.jsonl with an in-memory index, opened
// once per process. One process writes a store at a time; any number may
// read it (the standalone dashboard tails it via Poll).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"surw/internal/runner"
)

const (
	manifestName = "manifest.json"
	runsName     = "runs.jsonl"
)

// Event is one live campaign notification, streamed to dashboard
// subscribers over SSE.
type Event struct {
	// Type is "session" (one session record landed), "cell" (a RunTarget
	// batch finished), or "snapshot" (sent once per SSE subscription with
	// the store's current totals).
	Type      string `json:"type"`
	Target    string `json:"target,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// Session is the session index of a "session" event.
	Session int `json:"session,omitempty"`
	// FirstBug is the session's schedules-to-first-bug (-1 = none).
	FirstBug int `json:"first_bug,omitempty"`
	// Found/Sessions summarize a "cell" event.
	Found    int `json:"found,omitempty"`
	Sessions int `json:"sessions,omitempty"`
	// Stored is the total number of session records in the store.
	Stored int `json:"stored"`
	// Cells is the number of cells completed by this process.
	Cells int `json:"cells,omitempty"`
}

// Broker fans campaign events out to any number of subscribers. Publishing
// never blocks: a subscriber that falls behind loses events, not the
// campaign (the dashboard is a viewport, not a journal — the journal is
// runs.jsonl).
type Broker struct {
	mu   sync.Mutex
	subs map[chan Event]bool
}

// NewBroker returns an empty broker.
func NewBroker() *Broker { return &Broker{subs: make(map[chan Event]bool)} }

// Subscribe registers a new subscriber channel (buffered).
func (b *Broker) Subscribe() chan Event {
	ch := make(chan Event, 64)
	b.mu.Lock()
	b.subs[ch] = true
	b.mu.Unlock()
	return ch
}

// Subscribers returns the number of live subscriptions — the dashboard's
// connected-client count, and the handle SSE lifecycle tests watch to
// prove a disconnected client's subscription is reclaimed.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Unsubscribe removes a subscriber; its channel is closed.
func (b *Broker) Unsubscribe(ch chan Event) {
	b.mu.Lock()
	if b.subs[ch] {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// Publish delivers ev to every subscriber that has buffer room.
func (b *Broker) Publish(ev Event) {
	b.mu.Lock()
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	b.mu.Unlock()
}

// Store is the crash-safe run-store. It implements runner.SessionStore
// (Lookup/Store) and runner.BatchObserver (CellDone). All methods are safe
// for concurrent use; parallel sessions hit it from many workers.
type Store struct {
	// CellHook, when non-nil, runs synchronously after each CellDone with
	// the cell event. `surw bench -stop-after-cells` uses it to inject a
	// crash for the resume smoke test.
	CellHook func(Event)

	mu     sync.Mutex
	dir    string
	f      *os.File // runs.jsonl, append-only
	offset int64    // bytes of runs.jsonl already indexed
	recs   map[runner.SessionKey]sessionWire
	cells  int // CellDone count this process
	events *Broker
}

// Open opens (creating if needed) the store directory for writing,
// recovers the index from runs.jsonl — truncating a torn trailing line
// left by a crash — and readies the file for appends.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	if err := checkManifest(dir, true); err != nil {
		return nil, err
	}
	s, keep, size, err := load(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, runsName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open %s: %w", path, err)
	}
	if keep < size {
		// A torn trailing line: drop the partial bytes so the next append
		// starts on a fresh line.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: truncate torn tail of %s: %w", path, err)
		}
	}
	s.f = f
	return s, nil
}

// OpenRead opens an existing store read-only: no manifest is created, no
// torn tail is truncated (the writing process owns the file), and Store
// returns an error. The standalone dashboard opens stores this way and
// follows appends with Poll.
func OpenRead(dir string) (*Store, error) {
	if err := checkManifest(dir, false); err != nil {
		return nil, err
	}
	s, _, _, err := load(dir)
	return s, err
}

// load builds the in-memory index and returns (store, offset-after-last-
// complete-line, file size).
func load(dir string) (*Store, int64, int64, error) {
	s := &Store{
		dir:    dir,
		recs:   make(map[runner.SessionKey]sessionWire),
		events: NewBroker(),
	}
	path := filepath.Join(dir, runsName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, 0, fmt.Errorf("campaign: read %s: %w", path, err)
	}
	keep, err := s.indexLines(data, path)
	if err != nil {
		return nil, 0, 0, err
	}
	s.offset = keep
	return s, keep, int64(len(data)), nil
}

// checkManifest writes the manifest on first writable open and verifies
// the wire version on every later one.
func checkManifest(dir string, create bool) error {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if !create {
			return fmt.Errorf("campaign: %s is not a campaign store (no %s)", dir, manifestName)
		}
		return os.WriteFile(path, []byte(fmt.Sprintf("{\"version\":%d}\n", Version)), 0o644)
	}
	if err != nil {
		return fmt.Errorf("campaign: read manifest: %w", err)
	}
	var m struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("campaign: parse manifest %s: %w", path, err)
	}
	if m.Version != Version {
		return fmt.Errorf("campaign: store %s has wire version %d, this build speaks %d", dir, m.Version, Version)
	}
	return nil
}

// indexLines folds the complete lines of data into the index and returns
// the byte offset after the last complete line. A non-final unparsable
// line is corruption and errors out; a torn final line is the expected
// crash artifact and is simply not counted.
func (s *Store) indexLines(data []byte, path string) (int64, error) {
	offset := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Torn tail: no trailing newline means the append died mid-write.
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			offset += int64(nl + 1)
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(data) == 0 {
				// Final line, parse error: torn mid-write even though a stray
				// newline made it to disk. Drop it.
				break
			}
			return 0, fmt.Errorf("campaign: corrupt record in %s at byte %d: %v", path, offset, err)
		}
		if rec.V != Version {
			return 0, fmt.Errorf("campaign: record in %s has version %d, want %d", path, rec.V, Version)
		}
		s.recs[rec.Key.decode()] = rec.Session
		offset += int64(nl + 1)
	}
	return offset, nil
}

// Close syncs and closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of session records indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Events returns the store's event broker for SSE subscriptions.
func (s *Store) Events() *Broker { return s.events }

// Cells returns the number of cells completed by this process.
func (s *Store) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells
}

// Lookup implements runner.SessionStore: a hit returns the stored
// session's canonical decoded form and the batch skips executing it.
func (s *Store) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	s.mu.Lock()
	w, ok := s.recs[k]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	sess, err := w.decode()
	if err != nil {
		// An undecodable indexed record means the fingerprints were edited
		// by hand; treat it as absent and let the session re-run.
		return nil, false
	}
	return sess, true
}

// Store implements runner.SessionStore: it appends the session as one
// fsynced JSONL line and returns the wire round-trip, so fresh and resumed
// batches report byte-identical sessions.
func (s *Store) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	w := encodeSession(sess)
	line, err := json.Marshal(Record{V: Version, Key: encodeKey(k), Session: w})
	if err != nil {
		return nil, fmt.Errorf("campaign: encode session: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: store %s is closed", s.dir)
	}
	if _, err := s.f.Write(line); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: append: %w", err)
	}
	// Crash-safety: the record must be durable before the campaign moves
	// on, or a crash could skip a session on resume that never hit disk.
	if err := s.f.Sync(); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: sync: %w", err)
	}
	s.offset += int64(len(line))
	s.recs[k] = w
	stored := len(s.recs)
	s.mu.Unlock()

	s.events.Publish(Event{
		Type:      "session",
		Target:    k.Target,
		Algorithm: k.Algorithm,
		Limit:     k.Limit,
		Seed:      k.Seed,
		Session:   k.Session,
		FirstBug:  sess.FirstBug,
		Stored:    stored,
	})
	canon, err := w.decode()
	if err != nil {
		return nil, err
	}
	return canon, nil
}

// CellDone implements runner.BatchObserver: RunTarget reports each
// completed (target, algorithm) cell, which becomes a live dashboard event
// and feeds the optional CellHook.
func (s *Store) CellDone(target, alg string, limit int, seed int64, res *runner.Result) {
	s.mu.Lock()
	s.cells++
	ev := Event{
		Type:      "cell",
		Target:    target,
		Algorithm: alg,
		Limit:     limit,
		Seed:      seed,
		Sessions:  len(res.Sessions),
		Stored:    len(s.recs),
		Cells:     s.cells,
	}
	s.mu.Unlock()
	_, ev.Found = foundCount(res)
	s.events.Publish(ev)
	if s.CellHook != nil {
		s.CellHook(ev)
	}
}

func foundCount(res *runner.Result) (total, found int) {
	for _, sess := range res.Sessions {
		total++
		if sess.FirstBug >= 0 {
			found++
		}
	}
	return total, found
}

// Snapshot returns a copy of the indexed records for aggregation.
func (s *Store) snapshot() map[runner.SessionKey]sessionWire {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[runner.SessionKey]sessionWire, len(s.recs))
	for k, w := range s.recs {
		out[k] = w
	}
	return out
}

// Poll indexes records appended to runs.jsonl by another process since the
// last Open/Store/Poll, publishing a "session" event per new record, and
// returns how many it picked up. The standalone dashboard calls it on a
// timer to tail a store some campaign process is writing.
func (s *Store) Poll() (int, error) {
	s.mu.Lock()
	path := filepath.Join(s.dir, runsName)
	offset := s.offset
	s.mu.Unlock()

	fi, err := os.Stat(path)
	if err != nil || fi.Size() <= offset {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, 0); err != nil {
		return 0, err
	}
	data := make([]byte, fi.Size()-offset)
	if _, err := readFull(f, data); err != nil {
		return 0, err
	}

	n := 0
	s.mu.Lock()
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // incomplete line still being written
		}
		line := data[:nl]
		data = data[nl+1:]
		consumed := int64(nl + 1)
		var rec Record
		if len(bytes.TrimSpace(line)) > 0 {
			if err := json.Unmarshal(line, &rec); err != nil {
				break // writer mid-flush; retry next poll
			}
			k := rec.Key.decode()
			if _, dup := s.recs[k]; !dup {
				s.recs[k] = rec.Session
				n++
				stored := len(s.recs)
				s.mu.Unlock()
				s.events.Publish(Event{
					Type:      "session",
					Target:    k.Target,
					Algorithm: k.Algorithm,
					Limit:     k.Limit,
					Seed:      k.Seed,
					Session:   k.Session,
					FirstBug:  rec.Session.FirstBug,
					Stored:    stored,
				})
				s.mu.Lock()
			}
		}
		s.offset += consumed
	}
	s.mu.Unlock()
	return n, nil
}

func readFull(f *os.File, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := f.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
