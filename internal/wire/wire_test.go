package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// The codecs built on this package are fuzzed against encoding/json where
// they live (internal/campaign, internal/remote); these tests hold the
// primitives themselves to it on the inputs that have a rule of their own.

var samples = []string{
	"", "plain", "<&>", "\"\\/", "\b\f\n\r\t", "\x00\x1f\x7f", "  ", "é😀", "\xff", "a\xc0\xafb", "\xed\xa0\x80", "�",
}

func TestAppendStringIsEncodingJSONs(t *testing.T) {
	for _, s := range samples {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

func TestStringReadsWhatEncodingJSONReads(t *testing.T) {
	docs := []string{`"😀"`, `"\ud800"`, `"\udc00\ud800x"`, `"\ud800A"`, `"é\/"`, "\"a\xffb\"", `" "`}
	for _, s := range samples {
		b, _ := json.Marshal(s)
		docs = append(docs, string(b))
	}
	for _, doc := range docs {
		var want string
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		var p Parser
		p.Reset([]byte(doc))
		got := string(p.String())
		if err := p.End(); err != nil || got != want {
			t.Errorf("String(%s) = %q (%v), encoding/json reads %q", doc, got, err, want)
		}
	}
	for _, bad := range []string{`"`, `"\`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"a\nb\"", `'a'`, `"a" "b"`} {
		var p Parser
		p.Reset([]byte(bad))
		p.String()
		if p.End() == nil {
			t.Errorf("String accepts %s", bad)
		}
	}
}

func TestIntTakesIntegersThatFit(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
		var p Parser
		p.Reset([]byte(strconv.FormatInt(v, 10)))
		if got := p.Int(); p.End() != nil || got != v {
			t.Errorf("Int(%d) = %d (%v)", v, got, p.End())
		}
	}
	var p Parser
	p.Reset([]byte("-0"))
	if got := p.Int(); p.End() != nil || got != 0 {
		t.Errorf("Int(-0) = %d (%v)", got, p.End())
	}
	for _, bad := range []string{"", "-", "01", "1.0", "1e2", "9223372036854775808", "-9223372036854775809", "+1", "0x10", "1 2"} {
		p.Reset([]byte(bad))
		p.Int()
		if p.End() == nil {
			t.Errorf("Int accepts %q", bad)
		}
	}
}

func TestHex16RoundTrips(t *testing.T) {
	for _, v := range []uint64{0, 10, 0x0123456789abcdef, math.MaxUint64} {
		b := AppendHex16(nil, v)
		got, ok := ParseHex16(b[1 : len(b)-1])
		if !ok || got != v || len(b) != 18 {
			t.Errorf("%x: wrote %s, read back %x (%v)", v, b, got, ok)
		}
	}
	for _, bad := range []string{"", "a", "000000000000000A", "00000000000000000", "000000000000000g"} {
		if _, ok := ParseHex16([]byte(bad)); ok {
			t.Errorf("ParseHex16 accepts %q", bad)
		}
	}
}

// TestFieldWalksAStruct covers the object walk: names matched exactly,
// unknown members skipped with their syntax checked, what encoding/json
// would resolve by a rule of its own refused.
func TestFieldWalksAStruct(t *testing.T) {
	names := []string{"a", "b"}
	read := func(doc string) (a, b int64, err error) {
		var p Parser
		var o Object
		p.Reset([]byte(doc))
		for p.Field(&o, names) {
			if o.Index == 0 {
				a = p.Int()
			} else {
				b = p.Int()
			}
		}
		return a, b, p.End()
	}
	for _, doc := range []string{
		`{"a":1,"b":2}`, ` { "b" : 2 , "x" : [ { "y" : [ 1.5e-3 , "}" , null , true ] } ] , "a" : 1 } `, `{"b":2,"x":{},"a":1,"x":[]}`,
	} {
		if a, b, err := read(doc); err != nil || a != 1 || b != 2 {
			t.Errorf("%s: a=%d b=%d err=%v", doc, a, b, err)
		}
	}
	if a, b, err := read(`null`); err != nil || a != 0 || b != 0 {
		t.Errorf("null: a=%d b=%d err=%v", a, b, err)
	}
	for _, bad := range []string{
		`{"a":1,"a":2}`, `{"A":1}`, `{"a":1,}`, `{"a":1 "b":2}`, `{"a":1}}`, `{"x":[1,]}`, `{"x":tru}`, `{"x":01}`, `{a:1}`, `[1]`, `{"a":1`,
		`{"x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	} {
		if _, _, err := read(bad); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
