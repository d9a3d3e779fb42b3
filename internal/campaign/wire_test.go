package campaign

// The record codec's proof. The tagged structs below are the ones
// encoding/json wrote and read every record through before wire.go; they
// stay here as the oracle AppendRecord and ParseRecord are held to, on the
// golden lines a parent build wrote and under fuzzing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"surw/internal/runner"
	"surw/internal/wire/wiretest"
)

type recordOracle struct {
	V       int           `json:"v"`
	Key     keyOracle     `json:"key"`
	Session sessionOracle `json:"session"`
}

type keyOracle struct {
	Target         string `json:"target"`
	Algorithm      string `json:"algorithm"`
	Limit          int    `json:"limit"`
	Seed           int64  `json:"seed"`
	Session        int    `json:"session"`
	StopAtFirstBug bool   `json:"stop_at_first_bug,omitempty"`
	Coverage       bool   `json:"coverage,omitempty"`
	CoverageEvery  int    `json:"coverage_every,omitempty"`
	ProfileRuns    int    `json:"profile_runs,omitempty"`
}

type sessionOracle struct {
	FirstBug  int            `json:"first_bug"`
	Schedules int            `json:"schedules"`
	Truncated int            `json:"truncated,omitempty"`
	Bugs      map[string]int `json:"bugs,omitempty"`
	Cov       *covOracle     `json:"cov,omitempty"`
}

type covOracle struct {
	Interleavings map[string]int   `json:"interleavings"`
	Classes       map[string]int   `json:"classes,omitempty"`
	DupSchedules  int              `json:"dup_schedules,omitempty"`
	Behaviors     map[string]int   `json:"behaviors,omitempty"`
	Series        []covPointOracle `json:"series,omitempty"`
}

type covPointOracle struct {
	Schedules     int `json:"schedules"`
	Interleavings int `json:"interleavings"`
	Behaviors     int `json:"behaviors"`
	Classes       int `json:"classes,omitempty"`
}

// oracleOf builds the record encoding/json was handed for a session.
func oracleOf(k runner.SessionKey, s *runner.Session) recordOracle {
	hexed := func(m map[uint64]int) map[string]int {
		out := make(map[string]int, len(m))
		for h, n := range m {
			out[fmt.Sprintf("%016x", h)] = n
		}
		return out
	}
	w := sessionOracle{FirstBug: s.FirstBug, Schedules: s.Schedules, Truncated: s.Truncated}
	if len(s.Bugs) > 0 {
		w.Bugs = s.Bugs
	}
	if c := s.Cov; c != nil {
		w.Cov = &covOracle{Interleavings: hexed(c.Interleavings), DupSchedules: c.DupSchedules}
		if len(c.Classes) > 0 {
			w.Cov.Classes = hexed(c.Classes)
		}
		if len(c.Behaviors) > 0 {
			w.Cov.Behaviors = c.Behaviors
		}
		for _, p := range c.Series {
			w.Cov.Series = append(w.Cov.Series, covPointOracle(p))
		}
	}
	return recordOracle{
		V: Version,
		Key: keyOracle{
			Target: k.Target, Algorithm: k.Algorithm, Limit: k.Limit, Seed: k.Seed, Session: k.Session,
			StopAtFirstBug: k.StopAtFirstBug, Coverage: k.Coverage, CoverageEvery: k.CoverageEvery, ProfileRuns: k.ProfileRuns,
		},
		Session: w,
	}
}

// decode is the record's old way back to a session; ok is false where the
// old reader refused (another version, a fingerprint that is not hex).
func (r recordOracle) decode() (runner.SessionKey, *runner.Session, bool) {
	ok := r.V == Version
	unhexed := func(m map[string]int) map[uint64]int {
		out := make(map[uint64]int, len(m))
		for hex, n := range m {
			h, err := strconv.ParseUint(hex, 16, 64)
			ok = ok && err == nil
			out[h] = n
		}
		return out
	}
	w := r.Session
	s := &runner.Session{FirstBug: w.FirstBug, Schedules: w.Schedules, Truncated: w.Truncated, Bugs: cloneMap(w.Bugs)}
	if c := w.Cov; c != nil {
		s.Cov = &runner.Coverage{
			Interleavings: unhexed(c.Interleavings),
			Classes:       unhexed(c.Classes),
			Behaviors:     cloneMap(c.Behaviors),
			DupSchedules:  c.DupSchedules,
		}
		for _, p := range c.Series {
			s.Cov.Series = append(s.Cov.Series, runner.CovPoint(p))
		}
	}
	k := r.Key
	return runner.SessionKey{
		Target: k.Target, Algorithm: k.Algorithm, Limit: k.Limit, Seed: k.Seed, Session: k.Session,
		StopAtFirstBug: k.StopAtFirstBug, Coverage: k.Coverage, CoverageEvery: k.CoverageEvery, ProfileRuns: k.ProfileRuns,
	}, s, ok
}

// cloneMap copies m into a map that is never nil.
func cloneMap[K comparable](m map[K]int) map[K]int {
	c := make(map[K]int, len(m))
	for k, n := range m {
		c[k] = n
	}
	return c
}

type codecCase struct {
	key  runner.SessionKey
	sess *runner.Session
}

// codecCases are the sessions testdata/runs_line.golden holds, line for
// line: between them every field, every omitempty zero, every escape
// encoding/json knows and the integers' extremes.
func codecCases() []codecCase {
	return []codecCase{
		{ // the plainest record: nothing optional set
			runner.SessionKey{Target: "T", Algorithm: "SURW", Limit: 100, Seed: 7},
			&runner.Session{FirstBug: -1, Schedules: 100, Bugs: map[string]int{}},
		},
		{ // a hunt that found bugs whose ids need every escape
			runner.SessionKey{Target: "CS/reorder_10", Algorithm: "PCT-3", Limit: 2000, Seed: 1, Session: 19, StopAtFirstBug: true, ProfileRuns: 3},
			&runner.Session{FirstBug: 17, Schedules: 17, Truncated: 2, Flight: "/tmp/not-persisted", Bugs: map[string]int{
				"assert:reorder":           3,
				"<&>\"\\ \u2028\u2029 é 😀": 1,
				"bad\xffutf8\xc0":          2,
				"ctl\x01\b\f\n\r\t\x7f":    1,
				"":                         4,
			}},
		},
		{ // coverage with every field, and the integers' extremes
			runner.SessionKey{Target: "t/<x>", Algorithm: "URW", Limit: math.MaxInt64, Seed: math.MinInt64, Session: 3, Coverage: true, CoverageEvery: 50},
			&runner.Session{FirstBug: math.MinInt64, Schedules: math.MaxInt64, Truncated: -1, Bugs: map[string]int{"b": math.MinInt64},
				Cov: &runner.Coverage{
					Interleavings: map[uint64]int{0: 1, math.MaxUint64: 2, 0x0123456789abcdef: 3, 10: -4},
					Classes:       map[uint64]int{0xfedcba9876543210: 5, 1: 1},
					Behaviors:     map[string]int{"x=1": 4, "x=<2>&": 1, "\xfe": 2},
					DupSchedules:  5,
					Series: []runner.CovPoint{
						{Schedules: 50, Interleavings: 3, Behaviors: 2},
						{Schedules: 100, Interleavings: 4, Behaviors: 3, Classes: 2},
					},
				}},
		},
		{ // coverage asked for, nothing seen: the omitempty zeros
			runner.SessionKey{Target: "T", Algorithm: "RW", Seed: -1, Session: 1, Coverage: true},
			&runner.Session{Cov: &runner.Coverage{}},
		},
	}
}

func goldenLines(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "runs_line.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestRecordGolden holds AppendRecord to the bytes the parent commit's
// encoder (json.Marshal of the tagged structs) wrote for codecCases; the
// golden file was generated there and is not regenerated here.
func TestRecordGolden(t *testing.T) {
	cases, lines := codecCases(), goldenLines(t)
	if len(cases) != len(lines) {
		t.Fatalf("%d cases, %d golden lines", len(cases), len(lines))
	}
	for i, c := range cases {
		got := AppendRecord(nil, c.key, c.sess)
		if !bytes.Equal(got, lines[i]) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, lines[i])
		}
		viaMarshal, err := json.Marshal(NewRecord(c.key, c.sess))
		if err != nil || !bytes.Equal(viaMarshal, lines[i]) {
			t.Errorf("case %d through json.Marshal(Record): %v\n got %s\nwant %s", i, err, viaMarshal, lines[i])
		}
		k, s, err := ParseRecord(lines[i], nil)
		if err != nil {
			t.Errorf("case %d: ParseRecord: %v", i, err)
			continue
		}
		if canon, ok := canonical(c.sess); ok && !reflect.DeepEqual(canon, s) {
			t.Errorf("case %d: canonical() = %+v, the line parses to %+v", i, canon, s)
		}
		if k != c.key {
			t.Errorf("case %d: key %+v, want %+v", i, k, c.key)
		}
	}
}

// checkAgainstOracle holds ParseRecord to its contract on one line: what it
// accepts, json.Unmarshal into the tagged structs accepts, and the two
// decode to the same record. It reports whether ParseRecord accepted.
func checkAgainstOracle(t *testing.T, line []byte) bool {
	t.Helper()
	k, s, err := ParseRecord(line, nil)
	if err != nil {
		return false
	}
	var o recordOracle
	if jerr := json.Unmarshal(line, &o); jerr != nil {
		t.Fatalf("ParseRecord accepts what encoding/json rejects (%v):\n%s", jerr, line)
	}
	ok, os, valid := o.decode()
	if !valid {
		t.Fatalf("ParseRecord accepts a record the old reader refused:\n%s", line)
	}
	if k != ok || !reflect.DeepEqual(s, os) {
		t.Fatalf("ParseRecord and encoding/json disagree on\n%s\n got %+v %+v (cov %+v)\nwant %+v %+v (cov %+v)", line, k, s, s.Cov, ok, os, os.Cov)
	}
	return true
}

// sessionFrom builds a session out of fuzz bytes: every field reachable,
// text drawn from a pool that needs escaping.
func sessionFrom(data []byte) (runner.SessionKey, *runner.Session) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() int {
		switch b := next(); b % 8 {
		case 0:
			return 0
		case 1:
			return math.MaxInt64
		case 2:
			return math.MinInt64
		case 3:
			return -int(next())
		default:
			return int(b)<<8 | int(next())
		}
	}
	text := func() string {
		pool := []string{"", "a", "assert:x", "<", ">", "&", "\"", "\\", "\u2028", "\u2029", "é", "😀", "\xff", "\xc0\xaf", "\x00", "\x1f", "\x7f", "\n", "/", "\ufffd", "\xed\xa0\x80"}
		var s string
		for n := next() % 4; n > 0; n-- {
			if b := next(); b < 200 {
				s += pool[int(b)%len(pool)]
			} else {
				s += string([]byte{next()})
			}
		}
		return s
	}
	counts := func() map[string]int {
		m := make(map[string]int)
		for n := next() % 5; n > 0; n-- {
			m[text()] = num()
		}
		return m
	}
	prints := func() map[uint64]int {
		m := make(map[uint64]int)
		for n := next() % 5; n > 0; n-- {
			h := uint64(num())
			if next()%2 == 0 {
				h *= 0x9E3779B97F4A7C15
			}
			m[h] = num()
		}
		return m
	}
	flags := next()
	k := runner.SessionKey{
		Target: text(), Algorithm: text(), Limit: num(), Seed: int64(num()), Session: num(),
		StopAtFirstBug: flags&1 != 0, Coverage: flags&2 != 0, CoverageEvery: num(), ProfileRuns: num(),
	}
	s := &runner.Session{FirstBug: num(), Schedules: num(), Truncated: num(), Flight: text()}
	if flags&4 != 0 {
		s.Bugs = counts()
	}
	if flags&8 != 0 {
		s.Cov = &runner.Coverage{DupSchedules: num()}
		if flags&16 != 0 {
			s.Cov.Interleavings = prints()
		}
		if flags&32 != 0 {
			s.Cov.Classes = prints()
		}
		if flags&64 != 0 {
			s.Cov.Behaviors = counts()
		}
		for n := next() % 4; n > 0; n-- {
			s.Cov.Series = append(s.Cov.Series, runner.CovPoint{Schedules: num(), Interleavings: num(), Behaviors: num(), Classes: num()})
		}
	}
	return k, s
}

// FuzzRecordCodec is the differential proof of the record codec against
// encoding/json over the tagged structs. The input is read twice: as the
// recipe of a session (sessionFrom) — AppendRecord must write json.Marshal's
// bytes, ParseRecord must read them and any respelling of them back to what
// json.Unmarshal reads, and must refuse every truncation — and as a line
// off the disk, where whatever ParseRecord accepts encoding/json must
// accept, to the same record.
func FuzzRecordCodec(f *testing.F) {
	for _, line := range goldenLines(f) {
		f.Add(line)
	}
	for _, seed := range []string{
		"", "\x0f\x01\x02", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
		"\x7c\x03\x01\x02\x03\x01\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f\x20\x21\x22\x23",
		`{"v":1,"key":{"Target":"x"},"session":{}}`, `{"v":1,"v":1,"key":{},"session":{}}`, `{"v":1.0}`, `{"v":1e0}`,
		`{"v":1,"key":null,"session":null}`, `null`, `{"v":1,"session":{"cov":{"interleavings":{"A":1}}}}`,
		`{"v":1,"session":{"bugs":{"a":1,"a":2},"cov":null}} `, `{"v":1,"session":{"bugs":{"\ud800":1,"\ud800\udc00":2,"\udc00x":3}}}`,
		`{"v":2,"key":{},"session":{}}`, `{"v":1}x`, `{"v":1,"key":{"limit":9223372036854775808}}`, `{"v":1,"key":{"seed":-9223372036854775808}}`,
		`{"v":1,"key":{"seed":-0,"limit":00}}`, "{\"v\":1,\"key\":{\"target\":\"a\x01\"}}", `{"\u0076":1,"ſession":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(fuzzRecord)
}

func fuzzRecord(t *testing.T, data []byte) {
	{
		// As a line off the disk.
		checkAgainstOracle(t, data)

		// As the recipe of a session.
		k, s := sessionFrom(data)
		want, err := json.Marshal(oracleOf(k, s))
		if err != nil {
			t.Fatal(err)
		}
		line := AppendRecord(nil, k, s)
		if !bytes.Equal(line, want) {
			t.Fatalf("AppendRecord differs from json.Marshal:\n got %s\nwant %s", line, want)
		}
		if !checkAgainstOracle(t, line) {
			_, _, err := ParseRecord(line, nil)
			t.Fatalf("ParseRecord refuses AppendRecord's line (%v):\n%s", err, line)
		}
		_, parsed, _ := ParseRecord(line, nil)
		if canon, ok := canonical(s); ok && !reflect.DeepEqual(canon, parsed) {
			t.Fatalf("canonical() = %+v (cov %+v), the line parses to %+v (cov %+v)", canon, canon.Cov, parsed, parsed.Cov)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 4; i++ {
			respelt := wiretest.Respell(line, rng)
			if !checkAgainstOracle(t, respelt) {
				_, _, err := ParseRecord(respelt, nil)
				t.Fatalf("ParseRecord refuses a respelling (%v):\n%s\nof\n%s", err, respelt, line)
			}
		}
		for n := 0; n < len(line); n++ {
			if _, _, err := ParseRecord(line[:n], nil); err == nil {
				t.Fatalf("ParseRecord accepts the line cut at byte %d:\n%s", n, line[:n])
			}
		}
	}
}

// TestParentStoreOpens opens a runs.jsonl as a parent build, or anything
// else that writes the schema through encoding/json, leaves it: the golden
// lines, the same records respelt, blank lines, and a torn tail — it must
// index to the golden sessions and accept appends behind them.
func TestParentStoreOpens(t *testing.T) {
	lines, cases := goldenLines(t), codecCases()
	rng := rand.New(rand.NewSource(1))
	var file []byte
	want := make(map[runner.SessionKey]*runner.Session)
	for i, line := range lines {
		var o recordOracle
		if err := json.Unmarshal(line, &o); err != nil {
			t.Fatal(err)
		}
		k, s, _ := o.decode()
		if k != cases[i].key {
			t.Fatalf("golden line %d holds key %+v, want %+v", i, k, cases[i].key)
		}
		want[k] = s
		file = append(append(file, line...), '\n')
		// The same sessions again under other keys, spelt differently.
		o.Key.Seed = 1000 + int64(i)
		k.Seed = o.Key.Seed
		want[k] = s
		other, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		other = bytes.ReplaceAll(wiretest.Respell(other, rng), []byte("\n"), []byte(" "))
		file = append(append(file, other...), "\n  \n"...)
	}
	file = append(file, lines[0][:len(lines[0])/2]...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{\"version\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, runsName), file, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(want) {
		t.Fatalf("indexed %d records, want %d", st.Len(), len(want))
	}
	for k, s := range want {
		got, ok := st.Lookup(k)
		if !ok || !reflect.DeepEqual(got, s) {
			t.Errorf("key %+v: got %+v (found %v), want %+v", k, got, ok, s)
		}
	}
	// The torn tail is gone: an append lands on a line of its own.
	extra := runner.SessionKey{Target: "T", Algorithm: "SURW", Limit: 100, Seed: 7, Session: 99}
	if _, err := st.Store(extra, cases[0].sess); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after an append behind a parent's records: %v", err)
	}
	defer re.Close()
	if re.Len() != len(want)+1 {
		t.Fatalf("reopened with %d records, want %d", re.Len(), len(want)+1)
	}
}
