package campaign

// The run-store: an append-only runs.jsonl with an in-memory index, opened
// once per process. One process writes a store at a time; any number may
// read it (the standalone dashboard tails it via Poll).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// Type is "session" (one session record landed), "cell" (a cell's
	// last session landed), or "snapshot" (sent once per SSE subscription with
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
	f      appendFile // runs.jsonl, append-only; nil when closed or read-only
	offset int64      // bytes of runs.jsonl already indexed
	// index holds each record's canonical session (see ParseRecord) by cell
	// and, within its cell, by session number; n counts them. A session is
	// the store's own from the moment it is indexed and never changes again:
	// Lookup, Store and Aggregate hand out that very pointer, for reading.
	index  map[CellKey]map[int]*runner.Session
	n      int
	names  map[string]string // target and algorithm names indexLines has read, to intern the next line's against
	line   []byte            // Store's encoding buffer
	cells  int               // CellDone count this process
	events *Broker
}

// appendFile is what the store needs of runs.jsonl once it is open — an
// *os.File, or a test's stand-in that fails on cue.
type appendFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
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
		index:  make(map[CellKey]map[int]*runner.Session),
		names:  make(map[string]string),
		events: NewBroker(),
	}
	path := filepath.Join(dir, runsName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, 0, fmt.Errorf("campaign: read %s: %w", path, err)
	}
	keep, err := s.indexLines(data, nil)
	if err != nil {
		// A line that does not parse is corruption unless it is the last:
		// that one was torn mid-write even though a stray newline made it
		// to disk, and is dropped like a tail with no newline at all.
		last := bytes.IndexByte(data[keep:], '\n') == len(data)-keep-1
		if !last || errors.Is(err, errVersion) {
			return nil, 0, 0, fmt.Errorf("campaign: corrupt record in %s at byte %d: %w", path, keep, err)
		}
	}
	s.offset = int64(keep)
	return s, s.offset, int64(len(data)), nil
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

// indexLines folds the complete lines of data into the index, in order —
// blank lines skipped, a key already indexed left as it is, each new one
// reported to added when that is not nil — and returns the offset after the
// last line it took. It stops before data's unterminated tail (an append
// that is still being written, or died) and before the first line that does
// not parse, which it returns the error of. Caller holds s.mu or is still
// constructing s.
func (s *Store) indexLines(data []byte, added func(runner.SessionKey, *runner.Session)) (int, error) {
	offset := 0
	for {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			return offset, nil
		}
		if line := data[offset : offset+nl]; len(bytes.TrimSpace(line)) > 0 {
			k, sess, err := ParseRecord(line, s.names)
			if err != nil {
				return offset, err
			}
			if _, dup := s.lookupLocked(k); !dup {
				s.names[k.Target], s.names[k.Algorithm] = k.Target, k.Algorithm
				s.indexLocked(k, sess)
				if added != nil {
					added(k, sess)
				}
			}
		}
		offset += nl + 1
	}
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
	return s.n
}

// lookupLocked returns the indexed session of k. Caller holds s.mu or is
// still constructing s.
func (s *Store) lookupLocked(k runner.SessionKey) (*runner.Session, bool) {
	sess, ok := s.index[cellOf(k)][k.Session]
	return sess, ok
}

// indexLocked indexes sess under k, which it does not hold yet. Caller
// holds s.mu or is still constructing s.
func (s *Store) indexLocked(k runner.SessionKey, sess *runner.Session) {
	cell := cellOf(k)
	sessions := s.index[cell]
	if sessions == nil {
		sessions = make(map[int]*runner.Session)
		s.index[cell] = sessions
	}
	sessions[k.Session] = sess
	s.n++
}

// Events returns the store's event broker for SSE subscriptions.
func (s *Store) Events() *Broker { return s.events }

// Cells returns the number of cells completed by this process.
func (s *Store) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells
}

// Lookup implements runner.SessionStore: a hit returns the stored session —
// the store's own, not a copy, which nobody may write — and the batch skips
// executing it.
func (s *Store) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(k)
}

// Store implements runner.SessionStore: it takes ownership of sess, appends
// it as one fsynced JSONL line and returns the session that line parses to,
// so fresh and resumed batches report identical sessions. That is sess
// itself, made canonical in place (see canonical), unless its text cannot
// round-trip; either way the store keeps it and nobody may write it again.
// A key the store already holds appends nothing and returns the indexed
// session, as Open would keep it. An append that fails leaves no trace of
// itself in the file (see appendLocked).
func (s *Store) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: store %s is closed", s.dir)
	}
	if held, ok := s.lookupLocked(k); ok {
		s.mu.Unlock()
		return held, nil
	}
	s.line = append(AppendRecord(s.line[:0], k, sess), '\n')
	if err := s.appendLocked(s.line); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if _, ok := canonical(sess); !ok {
		// Text the line could not spell as given (see canonical): read it back.
		var err error
		if _, sess, err = ParseRecord(s.line[:len(s.line)-1], nil); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("campaign: stored a record that does not parse: %w", err)
		}
	}
	s.indexLocked(k, sess)
	stored := s.n
	s.mu.Unlock()

	s.events.Publish(sessionEvent(k, sess, stored))
	return sess, nil
}

// appendLocked writes line to runs.jsonl and makes it durable — a crash
// after Store returns must not skip on resume a session that never hit
// disk. If either step fails the file is cut back to the last good record:
// a partial line left in place would sit in the middle of the file once the
// re-run session was appended behind it, and only a torn last line is
// forgiven on open. If the cut fails too, the store closes, so that nothing
// is ever appended behind the tear. Caller holds s.mu.
func (s *Store) appendLocked(line []byte) error {
	_, err := s.f.Write(line)
	if err != nil {
		err = fmt.Errorf("campaign: append: %w", err)
	} else if err = s.f.Sync(); err != nil {
		err = fmt.Errorf("campaign: sync: %w", err)
	} else {
		s.offset += int64(len(line))
		return nil
	}
	if terr := s.f.Truncate(s.offset); terr != nil {
		s.f.Close()
		s.f = nil
		return fmt.Errorf("%w; closing the store: cannot cut the partial line back: %v", err, terr)
	}
	return err
}

func sessionEvent(k runner.SessionKey, sess *runner.Session, stored int) Event {
	return Event{
		Type:      "session",
		Target:    k.Target,
		Algorithm: k.Algorithm,
		Limit:     k.Limit,
		Seed:      k.Seed,
		Session:   k.Session,
		FirstBug:  sess.FirstBug,
		Stored:    stored,
	}
}

// CellDone implements runner.BatchObserver: runner.RunCells reports each
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
		Stored:    s.n,
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

	// A line that does not parse yet is the writer mid-flush: the next poll
	// starts from it again.
	var events []Event
	s.mu.Lock()
	n, _ := s.indexLines(data, func(k runner.SessionKey, sess *runner.Session) {
		events = append(events, sessionEvent(k, sess, s.n))
	})
	s.offset += int64(n)
	s.mu.Unlock()
	for _, ev := range events {
		s.events.Publish(ev)
	}
	return len(events), nil
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
