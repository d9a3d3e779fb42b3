// Package wire holds the JSON primitives behind the repository's two hand
// codecs — the run-store record (internal/campaign) and the lease protocol's
// four messages (internal/remote): append-style writers that produce the
// bytes encoding/json produces, and a pull parser for fixed schemas that
// allocates nothing of its own.
//
// The parser's contract is soundness against encoding/json: whatever it
// accepts, json.Unmarshal into the matching tagged struct accepts and
// decodes to the same value. Where matching encoding/json would take more
// than a rule — a key repeated in one object, a key that only matches a
// field case-insensitively, a number that is not a plain integer — it
// rejects instead; nothing this repository or encoding/json writes for
// those schemas is rejected.
package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on: ", \ and control characters escaped, <, > and &
// as \u00XX, U+2028/9 as \u202X, each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendInt appends name — an object member's key as it goes out, quotes,
// colon and any comma before it included — and v in decimal.
func AppendInt(dst []byte, name string, v int64) []byte {
	dst = append(dst, name...)
	return strconv.AppendInt(dst, v, 10)
}

// AppendHex16 appends v as the quoted %016x fingerprint the store's
// coverage maps are keyed by.
func AppendHex16(dst []byte, v uint64) []byte {
	dst = append(dst, '"')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[v>>uint(shift)&0xF])
	}
	return append(dst, '"')
}

// ParseHex16 is AppendHex16's inverse on the bytes between the quotes:
// exactly sixteen lower-case hex digits, so distinct keys are distinct
// values.
func ParseHex16(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// maxSkipDepth bounds the nesting of a value the parser skips (an unknown
// field's); encoding/json's own bound is 10 000.
const maxSkipDepth = 64

// Parser reads one JSON document with a schema the caller drives: Field
// and Elem walk objects and arrays, Int, Bool and String read leaves. The
// first error sticks — every later call returns a zero value and Field and
// Elem return false — so a caller checks End once. Every reader takes JSON
// null for the zero value, as encoding/json does.
type Parser struct {
	data []byte
	pos  int
	err  error
	buf  []byte // unescaped bytes of the last String or key that needed it
}

// Reset points the parser at data, keeping its scratch.
func (p *Parser) Reset(data []byte) { p.data, p.pos, p.err = data, 0, nil }

// Fail records err as the parse's error unless one is already recorded.
func (p *Parser) Fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *Parser) failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("wire: %s at byte %d", fmt.Sprintf(format, args...), p.pos)
	}
}

// End reports the parse's error: the first recorded, or anything but white
// space after the document.
func (p *Parser) End() error {
	p.space()
	if p.err == nil && p.pos < len(p.data) {
		p.failf("data after the value")
	}
	return p.err
}

func (p *Parser) space() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end or after an error.
func (p *Parser) peek() byte {
	if p.err != nil || p.pos >= len(p.data) {
		return 0
	}
	return p.data[p.pos]
}

func (p *Parser) literal(lit string) bool {
	if p.err == nil && len(p.data)-p.pos >= len(lit) && string(p.data[p.pos:p.pos+len(lit)]) == lit {
		p.pos += len(lit)
		return true
	}
	return false
}

// Null consumes a null if one is next.
func (p *Parser) Null() bool { return p.literal("null") }

// Bool reads true or false.
func (p *Parser) Bool() bool {
	switch {
	case p.literal("true"):
		return true
	case p.literal("false"), p.Null():
	default:
		p.failf("want a boolean")
	}
	return false
}

// digits consumes [0-9]* and reports how many.
func (p *Parser) digits() int {
	start := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos - start
}

// Int reads an integer in JSON's grammar that fits an int64. A fraction or
// an exponent is an error, as it is for encoding/json into an int field.
func (p *Parser) Int() int64 {
	if p.Null() || p.err != nil {
		return 0
	}
	neg := p.peek() == '-'
	if neg {
		p.pos++
	}
	start := p.pos
	n := p.digits()
	if n == 0 || (n > 1 && p.data[start] == '0') {
		p.failf("want an integer")
		return 0
	}
	if c := p.peek(); c == '.' || c == 'e' || c == 'E' {
		p.failf("want an integer, not a fraction or exponent")
		return 0
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit = 1 << 63
	}
	var v uint64
	for _, c := range p.data[start:p.pos] {
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			p.failf("integer out of range")
			return 0
		}
		v = v*10 + d
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// IntN is Int for an int field.
func (p *Parser) IntN() int {
	v := p.Int()
	if int64(int(v)) != v {
		p.failf("integer out of range")
		return 0
	}
	return int(v)
}

// String reads a string and returns its unescaped bytes, valid until the
// parser's next call: a slice of the input when the string holds no escape
// and is valid UTF-8, the parser's scratch otherwise (invalid UTF-8 and
// lone surrogates become U+FFFD, as in encoding/json).
func (p *Parser) String() []byte {
	if p.Null() || p.err != nil {
		return nil
	}
	if p.peek() != '"' {
		p.failf("want a string")
		return nil
	}
	p.pos++
	start := p.pos
	// The common case: nothing to unescape.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			p.pos++
			return p.data[start : p.pos-1]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			p.pos++
			continue
		}
		r, size := utf8.DecodeRune(p.data[p.pos:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		p.pos += size
	}
	p.buf = append(p.buf[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.buf
		case c < ' ':
			p.failf("control character in a string")
			return nil
		case c == '\\':
			if !p.escape() {
				return nil
			}
		case c < utf8.RuneSelf:
			p.buf = append(p.buf, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			p.buf = utf8.AppendRune(p.buf, r)
			p.pos += size
		}
	}
	p.failf("unterminated string")
	return nil
}

// escape unescapes the backslash sequence at pos into buf.
func (p *Parser) escape() bool {
	if p.pos+1 >= len(p.data) {
		p.failf("unterminated string")
		return false
	}
	c := p.data[p.pos+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := p.hex4(p.pos + 2)
		if r < 0 {
			p.failf("bad \\u escape")
			return false
		}
		p.pos += 6
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
				r2 = p.hex4(p.pos + 2)
			}
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				p.pos += 6
				r = dec
			} else {
				r = utf8.RuneError
			}
		}
		p.buf = utf8.AppendRune(p.buf, r)
		return true
	default:
		p.failf("bad escape")
		return false
	}
	p.buf = append(p.buf, c)
	p.pos += 2
	return true
}

// hex4 reads four hex digits at i, -1 when they are not there.
func (p *Parser) hex4(i int) rune {
	if i+4 > len(p.data) {
		return -1
	}
	var r rune
	for _, c := range p.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Object is the state of one walk over an object's members.
type Object struct {
	// Index is the current member's position in the names Field was given.
	Index int
	// Key is the current member's key when Field was given no names (a
	// map), unescaped; valid until the parser's next call.
	Key  []byte
	seen uint64
	open bool
}

// Field advances to the object's next member and reports whether there is
// one; the caller then reads the member's value. Given names (at most 64,
// the fields of a struct), members with other keys are skipped and
// Object.Index says which name matched; a repeated name, or a key equal to
// a name only under case folding — encoding/json would assign it — is an
// error. Given nil, every member is returned with Object.Key set. A null
// in the object's place is an empty object.
func (p *Parser) Field(o *Object, names []string) bool {
	for {
		p.space()
		switch c := p.peek(); {
		case !o.open:
			if p.Null() {
				return false
			}
			if c != '{' {
				p.failf("want an object")
				return false
			}
			o.open = true
			p.pos++
			p.space()
			if p.peek() == '}' {
				p.pos++
				return false
			}
		case c == ',':
			p.pos++
			p.space()
		case c == '}':
			p.pos++
			return false
		default:
			p.failf("want , or } in an object")
			return false
		}
		if p.peek() != '"' {
			p.failf("want a key")
			return false
		}
		key := p.String()
		p.space()
		if p.peek() != ':' {
			p.failf("want : after a key")
			return false
		}
		p.pos++
		p.space()
		if names == nil {
			o.Index, o.Key = -1, key
			return true
		}
		for i, name := range names {
			if string(key) == name {
				if o.seen&(1<<uint(i)) != 0 {
					p.failf("field %q repeated", name)
					return false
				}
				o.seen |= 1 << uint(i)
				o.Index = i
				return true
			}
		}
		for _, name := range names {
			if bytes.EqualFold(key, []byte(name)) {
				p.failf("key %q matches field %q only by case", key, name)
				return false
			}
		}
		p.skip(0)
	}
}

// Array is the state of one walk over an array's elements.
type Array struct{ open bool }

// Elem advances to the array's next element and reports whether there is
// one; the caller then reads it. A null in the array's place is empty.
func (p *Parser) Elem(a *Array) bool {
	p.space()
	switch c := p.peek(); {
	case !a.open:
		if p.Null() {
			return false
		}
		if c != '[' {
			p.failf("want an array")
			return false
		}
		a.open = true
		p.pos++
		p.space()
		if p.peek() == ']' {
			p.pos++
			return false
		}
		return true
	case c == ',':
		p.pos++
		p.space()
		return true
	case c == ']':
		p.pos++
		return false
	}
	p.failf("want , or ] in an array")
	return false
}

// Raw consumes one value of any shape and returns its bytes.
func (p *Parser) Raw() []byte {
	start := p.pos
	p.skip(0)
	if p.err != nil {
		return nil
	}
	return p.data[start:p.pos]
}

// skip consumes one value of any shape, checking its syntax.
func (p *Parser) skip(depth int) {
	switch c := p.peek(); {
	case depth > maxSkipDepth:
		p.failf("value nested deeper than %d", maxSkipDepth)
	case c == '"':
		p.String()
	case c == '{':
		var o Object
		for p.Field(&o, nil) {
			p.skip(depth + 1)
		}
	case c == '[':
		var a Array
		for p.Elem(&a) {
			p.skip(depth + 1)
		}
	case c == '-' || ('0' <= c && c <= '9'):
		p.number()
	case p.literal("true"), p.literal("false"), p.literal("null"):
	default:
		p.failf("want a value")
	}
}

// number consumes a number in JSON's full grammar.
func (p *Parser) number() {
	if p.peek() == '-' {
		p.pos++
	}
	start := p.pos
	if n := p.digits(); n == 0 || (n > 1 && p.data[start] == '0') {
		p.failf("bad number")
		return
	}
	if p.peek() == '.' {
		p.pos++
		if p.digits() == 0 {
			p.failf("bad number")
			return
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if p.digits() == 0 {
			p.failf("bad number")
		}
	}
}
