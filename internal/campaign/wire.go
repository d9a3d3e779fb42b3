package campaign

// The record codec: the one place the run-store's line — and with it the
// result payload of the lease protocol — is written and read. AppendRecord
// writes the bytes encoding/json writes for the tagged structs this file
// replaced (kept in wire_test.go as the oracle the codec is fuzzed
// against); ParseRecord reads them back, from either writer, straight into
// a runner.Session.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"surw/internal/runner"
	"surw/internal/wire"
)

// appendCounts appends a string-keyed tally with its keys in byte order,
// the order encoding/json writes a map in.
func appendCounts(dst []byte, m map[string]int) []byte {
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendString(dst, k)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(m[k]), 10)
	}
	return append(dst, '}')
}

// appendFingerprints appends a fingerprint-keyed tally, keys as %016x — the
// flight recorder's rendering, so store lines and flight dumps
// cross-reference — in numeric order, which at a fixed width is byte order.
func appendFingerprints(dst []byte, m map[uint64]int) []byte {
	var stack [64]uint64
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendHex16(dst, k)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(m[k]), 10)
	}
	return append(dst, '}')
}

// AppendRecord appends the store line of one session, without a newline:
// {"v":1,"key":{…},"session":{…}}, zero-valued optional fields omitted. The
// Flight path is deliberately not persisted: it names a local diagnostic
// artifact, is excluded from runner.Result.Equal, and resumed sessions do
// not re-dump flights.
func AppendRecord(dst []byte, k runner.SessionKey, s *runner.Session) []byte {
	dst = wire.AppendInt(dst, `{"v":`, Version)
	dst = AppendCellHead(append(dst, `,"key":{`...), k.CellKey)
	dst = wire.AppendInt(dst, `,"session":`, int64(k.Session))
	dst = AppendCellFlags(dst, k.CellKey)
	dst = wire.AppendInt(dst, `},"session":{"first_bug":`, int64(s.FirstBug))
	dst = wire.AppendInt(dst, `,"schedules":`, int64(s.Schedules))
	if s.Truncated != 0 {
		dst = wire.AppendInt(dst, `,"truncated":`, int64(s.Truncated))
	}
	if len(s.Bugs) > 0 {
		dst = append(dst, `,"bugs":`...)
		dst = appendCounts(dst, s.Bugs)
	}
	if c := s.Cov; c != nil {
		dst = append(dst, `,"cov":{"interleavings":`...)
		dst = appendFingerprints(dst, c.Interleavings)
		// Classes (sched.Result.ClassHash tallies, the deduplicated
		// counterpart of interleavings) and dup_schedules are omitted by
		// records that predate the class fingerprint; such stores still load.
		if len(c.Classes) > 0 {
			dst = append(dst, `,"classes":`...)
			dst = appendFingerprints(dst, c.Classes)
		}
		if c.DupSchedules != 0 {
			dst = wire.AppendInt(dst, `,"dup_schedules":`, int64(c.DupSchedules))
		}
		if len(c.Behaviors) > 0 {
			dst = append(dst, `,"behaviors":`...)
			dst = appendCounts(dst, c.Behaviors)
		}
		for i, pt := range c.Series {
			if i == 0 {
				dst = append(dst, `,"series":[`...)
			} else {
				dst = append(dst, ',')
			}
			dst = wire.AppendInt(dst, `{"schedules":`, int64(pt.Schedules))
			dst = wire.AppendInt(dst, `,"interleavings":`, int64(pt.Interleavings))
			dst = wire.AppendInt(dst, `,"behaviors":`, int64(pt.Behaviors))
			if pt.Classes != 0 {
				dst = wire.AppendInt(dst, `,"classes":`, int64(pt.Classes))
			}
			dst = append(dst, '}')
		}
		if len(c.Series) > 0 {
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, "}}"...)
}

// The fields of the record's objects, in the order the parse switches on.
var (
	recordFields  = []string{"v", "key", "session"}
	keyFields     = append(slices.Clip(CellFields), "session")
	sessionFields = []string{"first_bug", "schedules", "truncated", "bugs", "cov"}
	covFields     = []string{"interleavings", "classes", "dup_schedules", "behaviors", "series"}
	pointFields   = []string{"schedules", "interleavings", "behaviors", "classes"}
)

// errVersion marks a well-formed record of another wire version.
var errVersion = errors.New("campaign: record wire version")

// intern returns b as a string: the one names already holds, when it does.
func intern(b []byte, names map[string]string) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
}

func parseCounts(p *wire.Parser) map[string]int {
	m := make(map[string]int)
	var o wire.Object
	for p.Field(&o, nil) {
		// The key first: it may live in the parser's scratch.
		k := string(o.Key)
		m[k] = p.IntN()
	}
	return m
}

func parseFingerprints(p *wire.Parser, what string) map[uint64]int {
	m := make(map[uint64]int)
	var o wire.Object
	for p.Field(&o, nil) {
		h, ok := wire.ParseHex16(o.Key)
		if !ok {
			p.Fail(fmt.Errorf("campaign: bad %s fingerprint %q", what, o.Key))
		}
		m[h] = p.IntN()
	}
	return m
}

// AppendCellHead appends a cell key's members "target" through "seed", no
// comma first. A record's key and a lease are written with it and
// AppendCellFlags, the record's session between the two.
func AppendCellHead(dst []byte, c runner.CellKey) []byte {
	dst = append(dst, `"target":`...)
	dst = wire.AppendString(dst, c.Target)
	dst = append(dst, `,"algorithm":`...)
	dst = wire.AppendString(dst, c.Algorithm)
	dst = wire.AppendInt(dst, `,"limit":`, int64(c.Limit))
	return wire.AppendInt(dst, `,"seed":`, c.Seed)
}

// AppendCellFlags appends a cell key's omitempty members, each behind a comma.
func AppendCellFlags(dst []byte, c runner.CellKey) []byte {
	if c.StopAtFirstBug {
		dst = append(dst, `,"stop_at_first_bug":true`...)
	}
	if c.Coverage {
		dst = append(dst, `,"coverage":true`...)
	}
	if c.CoverageEvery != 0 {
		dst = wire.AppendInt(dst, `,"coverage_every":`, int64(c.CoverageEvery))
	}
	return dst
}

// CellFields are a cell key's members in the order ReadCellField numbers
// them. A record's key and a lease list them first among their own fields.
var CellFields = []string{"target", "algorithm", "limit", "seed", "stop_at_first_bug", "coverage", "coverage_every"}

// ReadCellField reads the value p stands at, the member CellFields[i], into
// c. A target or algorithm is name(its bytes): the caller's way of not
// copying a name it already holds.
func ReadCellField(p *wire.Parser, c *runner.CellKey, i int, name func([]byte) string) {
	switch i {
	case 0:
		c.Target = name(p.String())
	case 1:
		c.Algorithm = name(p.String())
	case 2:
		c.Limit = p.IntN()
	case 3:
		c.Seed = p.Int()
	case 4:
		c.StopAtFirstBug = p.Bool()
	case 5:
		c.Coverage = p.Bool()
	case 6:
		c.CoverageEvery = p.IntN()
	}
}

// ParseRecord reads one record — AppendRecord's bytes or encoding/json's,
// fields in any order, unknown fields skipped — into the canonical session:
// the maps a session has are present (empty when the line omits them),
// Flight is empty. It accepts nothing encoding/json would not decode to
// the same record (see package wire), and rejects other wire versions with
// an error wrapping errVersion. A Target or Algorithm found in names (nil
// is fine) is that string, not a copy.
func ParseRecord(line []byte, names map[string]string) (runner.SessionKey, *runner.Session, error) {
	var p wire.Parser
	p.Reset(line)
	k, s := ReadRecord(&p, names)
	if err := p.End(); err != nil {
		return runner.SessionKey{}, nil, err
	}
	return k, s, nil
}

// ReadRecord is ParseRecord on the value p stands at — an element of a
// result body's records — with what is wrong with it left in p.
func ReadRecord(p *wire.Parser, names map[string]string) (runner.SessionKey, *runner.Session) {
	var (
		version int
		k       runner.SessionKey
		rec     wire.Object
	)
	s := &runner.Session{}
	name := func(b []byte) string { return intern(b, names) }
	for p.Field(&rec, recordFields) {
		switch rec.Index {
		case 0:
			version = p.IntN()
		case 1:
			var o wire.Object
			for p.Field(&o, keyFields) {
				if o.Index == len(CellFields) {
					k.Session = p.IntN()
				} else {
					ReadCellField(p, &k.CellKey, o.Index, name)
				}
			}
		case 2:
			var o wire.Object
			for p.Field(&o, sessionFields) {
				switch o.Index {
				case 0:
					s.FirstBug = p.IntN()
				case 1:
					s.Schedules = p.IntN()
				case 2:
					s.Truncated = p.IntN()
				case 3:
					s.Bugs = parseCounts(p)
				case 4:
					if !p.Null() {
						s.Cov = parseCoverage(p)
					}
				}
			}
		}
	}
	if version != Version {
		p.Fail(fmt.Errorf("%w %d, want %d", errVersion, version, Version))
	}
	if s.Bugs == nil {
		s.Bugs = make(map[string]int)
	}
	return k, s
}

func parseCoverage(p *wire.Parser) *runner.Coverage {
	c := &runner.Coverage{}
	var o wire.Object
	for p.Field(&o, covFields) {
		switch o.Index {
		case 0:
			c.Interleavings = parseFingerprints(p, "interleaving")
		case 1:
			c.Classes = parseFingerprints(p, "class")
		case 2:
			c.DupSchedules = p.IntN()
		case 3:
			c.Behaviors = parseCounts(p)
		case 4:
			var a wire.Array
			for p.Elem(&a) {
				var pt runner.CovPoint
				var po wire.Object
				for p.Field(&po, pointFields) {
					switch po.Index {
					case 0:
						pt.Schedules = p.IntN()
					case 1:
						pt.Interleavings = p.IntN()
					case 2:
						pt.Behaviors = p.IntN()
					case 3:
						pt.Classes = p.IntN()
					}
				}
				c.Series = append(c.Series, pt)
			}
		}
	}
	if c.Interleavings == nil {
		c.Interleavings = make(map[uint64]int)
	}
	if c.Classes == nil {
		c.Classes = make(map[uint64]int)
	}
	if c.Behaviors == nil {
		c.Behaviors = make(map[string]int)
	}
	return c
}

// canonical makes s, in place, the session ParseRecord(AppendRecord(k, s))
// returns — what the store indexes and hands back, so fresh and resumed
// batches report identical sessions — and returns it: every map a session
// has made non-nil, an empty series nil, Flight cleared. It reports false, and
// leaves s as it was, for the one case that is not that session: a bug id or
// behaviour that is not valid UTF-8, which the line spells with U+FFFD.
func canonical(s *runner.Session) (*runner.Session, bool) {
	for id := range s.Bugs {
		if !utf8.ValidString(id) {
			return nil, false
		}
	}
	if s.Cov != nil {
		for b := range s.Cov.Behaviors {
			if !utf8.ValidString(b) {
				return nil, false
			}
		}
	}
	s.Flight = ""
	if s.Bugs == nil {
		s.Bugs = make(map[string]int)
	}
	if c := s.Cov; c != nil {
		if c.Interleavings == nil {
			c.Interleavings = make(map[uint64]int)
		}
		if c.Classes == nil {
			c.Classes = make(map[uint64]int)
		}
		if c.Behaviors == nil {
			c.Behaviors = make(map[string]int)
		}
		if len(c.Series) == 0 {
			c.Series = nil
		}
	}
	return s, true
}
